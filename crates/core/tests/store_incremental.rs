//! Tentpole guarantees of the persistent build-artifact store and the
//! incremental rebuild path:
//!
//! * the `protemp-table v2` format round-trips arbitrary artifacts exactly
//!   (infeasible cells, `tgrad none`, optimizer points, certificates),
//! * corruption in any byte is detected (checksums) or degraded safely
//!   (the `.certs` side file never gates the table),
//! * the three readers are total: arbitrary bytes and structured
//!   mutations of valid files never panic, and no mutation of a
//!   checksum-framed file is accepted unless its checksum is recomputed,
//!   and
//! * `build_incremental` from a coarse prior grid produces a table
//!   *bit-identical* to a cold build of the fine grid while spending
//!   measurably fewer Newton steps.
//!
//! A shortened constraint horizon (20 ms windows instead of 100 ms) keeps
//! the grid builds affordable in CI; the model and solver paths are
//! identical to the paper configuration.

use std::path::PathBuf;

use proptest::prelude::*;
use protemp::prelude::*;
use protemp::{
    read_certificates, read_table, read_table_v2, write_certificates, write_table, write_table_v2,
    AssignmentContext, BuildArtifact, CellRecord, CellStatus, Certificate, StoredCertificate,
    TableStore,
};

/// The paper's controller config with a 50-step horizon for test speed.
fn fast_config() -> ControlConfig {
    ControlConfig {
        dfs_period_us: 20_000,
        ..ControlConfig::default()
    }
}

fn context() -> AssignmentContext {
    AssignmentContext::new(&Platform::niagara8(), &fast_config()).expect("context")
}

/// A unique, self-cleaning store directory per test.
struct TempStore {
    dir: PathBuf,
    store: TableStore,
}

impl TempStore {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "protemp_store_{tag}_{}_{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        TempStore {
            store: TableStore::new(&dir),
            dir,
        }
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Strategy for an arbitrary-but-consistent [`BuildArtifact`]: up to 3×3
/// grids with a mix of feasible / infeasible / screened cells, optional
/// `tgrad`, random optimizer points and solve stats, and 0–2 certificates
/// (possibly with empty multiplier sections).
fn artifact_strategy() -> impl Strategy<Value = BuildArtifact> {
    (
        1usize..=3, // rows
        1usize..=3, // cols
        1usize..=3, // nvars
        // Per-cell pool (sliced to rows×cols): flag bits (feasible,
        // tgrad, phase1, warm, polish), an x vector (sliced to nvars),
        // Newton.
        prop::collection::vec(
            (
                0u64..32,
                prop::collection::vec(-1.0e3..1.0e3f64, 3usize),
                0u64..500,
            ),
            9usize,
        ),
        prop::collection::vec(
            (
                prop::collection::vec(0.0..2.0f64, 0..4),  // lambda_lin
                prop::collection::vec(0.0..2.0f64, 0..2),  // lambda_quad
                prop::collection::vec(-5.0..5.0f64, 1..4), // anchor
                20.0..110.0f64,
                1.0e8..1.0e9f64,
            ),
            0..3,
        ),
        0u64..u64::MAX,
    )
        .prop_map(|(rows, cols, nvars, cells, certs, fingerprint)| {
            let tstarts: Vec<f64> = (0..rows).map(|r| 40.0 + 7.5 * r as f64).collect();
            let ftargets: Vec<f64> = (0..cols).map(|c| 1.5e8 * (c as f64 + 1.0)).collect();
            let mut entries = Vec::new();
            let mut records = Vec::new();
            for (i, (flags, x, newton)) in cells.into_iter().take(rows * cols).enumerate() {
                let (feasible, with_tgrad, phase1, warm) = (
                    flags & 1 != 0,
                    flags & 2 != 0,
                    flags & 4 != 0,
                    flags & 8 != 0,
                );
                if feasible {
                    entries.push(Some(FrequencyAssignment {
                        freqs_hz: vec![1.0e8 * (i as f64 + 1.0); nvars],
                        powers_w: vec![0.25 * (i as f64 + 1.0); nvars],
                        tgrad_c: with_tgrad.then_some(1.5 + i as f64),
                        objective: 0.125 + i as f64,
                    }));
                    records.push(CellRecord {
                        status: CellStatus::Feasible,
                        newton_steps: newton,
                        phase1,
                        warm,
                        rows_pruned: newton / 2,
                        polish: false,
                        x: Some(x[..nvars].to_vec()),
                    });
                } else {
                    entries.push(None);
                    records.push(CellRecord {
                        status: if i % 2 == 0 {
                            CellStatus::Infeasible
                        } else {
                            CellStatus::Screened
                        },
                        newton_steps: newton,
                        phase1,
                        warm,
                        rows_pruned: newton / 2,
                        polish: flags & 16 != 0 && i % 2 == 0,
                        x: None,
                    });
                }
            }
            BuildArtifact {
                table: FrequencyTable::new(tstarts, ftargets, entries, FreqMode::Variable),
                cells: records,
                certificates: certs
                    .into_iter()
                    .map(
                        |(lambda_lin, lambda_quad, anchor, t, f)| StoredCertificate {
                            tstart_c: t,
                            ftarget_hz: f,
                            certificate: Certificate {
                                lambda_lin,
                                lambda_quad,
                                anchor,
                            },
                        },
                    )
                    .collect(),
                fingerprint,
                warm_start: fingerprint % 2 == 0,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// v2 table + certificate files round-trip arbitrary artifacts
    /// exactly: infeasible cells, `tgrad none`, optimizer points, solve
    /// stats, certificates with empty multiplier sections.
    #[test]
    fn v2_format_round_trips_exactly(artifact in artifact_strategy()) {
        let mut table_buf = Vec::new();
        write_table_v2(&artifact, &mut table_buf).unwrap();
        let parsed = read_table_v2(table_buf.as_slice()).unwrap();
        prop_assert_eq!(&parsed.table, &artifact.table);
        prop_assert_eq!(&parsed.cells, &artifact.cells);
        prop_assert_eq!(parsed.fingerprint, artifact.fingerprint);
        prop_assert_eq!(parsed.warm_start, artifact.warm_start);

        let mut certs_buf = Vec::new();
        write_certificates(artifact.fingerprint, &artifact.certificates, &mut certs_buf).unwrap();
        let (fp, certs) = read_certificates(certs_buf.as_slice()).unwrap();
        prop_assert_eq!(fp, artifact.fingerprint);
        prop_assert_eq!(&certs, &artifact.certificates);
    }

    /// Any single corrupted byte in a v2 table file is rejected — either
    /// as a checksum mismatch or as a format error — never silently
    /// accepted into a different table.
    #[test]
    fn v2_table_rejects_any_single_byte_corruption(
        artifact in artifact_strategy(),
        pos_frac in 0.0..1.0f64,
        delta in 1u32..256,
    ) {
        let mut buf = Vec::new();
        write_table_v2(&artifact, &mut buf).unwrap();
        let pos = ((buf.len() - 1) as f64 * pos_frac) as usize;
        buf[pos] ^= delta as u8;
        match read_table_v2(buf.as_slice()) {
            Err(_) => {}
            Ok(parsed) => {
                // The only tolerated corruptions are byte flips inside
                // whitespace/format that decode to the identical artifact
                // (e.g. a digit flip that the checksum... cannot survive —
                // so demand full equality).
                prop_assert_eq!(parsed.table, artifact.table);
                prop_assert_eq!(parsed.cells, artifact.cells);
            }
        }
    }
}

/// Values a structured mutation writes into a file: non-finite,
/// negative, overflowing and huge numbers, and status tags and block
/// keywords where numbers belong.
const HOSTILE_TOKENS: [&str; 9] = [
    "nan",
    "inf",
    "-1",
    "18446744073709551616",
    "1e308",
    "feasible",
    "infeasible",
    "screened",
    "endcert",
];

/// Headers and keywords the three readers dispatch on, and small
/// numbers: with [`HOSTILE_TOKENS`], the words the arbitrary-input
/// strategy strings together.
const KEYWORDS: [&str; 25] = [
    "protemp-table v1",
    "protemp-table v2",
    "protemp-certs v1",
    "mode",
    "variable",
    "tstarts",
    "ftargets",
    "entry",
    "freqs",
    "powers",
    "tgrad",
    "none",
    "objective",
    "fingerprint",
    "warmstart",
    "x",
    "stats",
    "cert",
    "lambda_lin",
    "lambda_quad",
    "anchor",
    "checksum",
    "0",
    "1",
    "60",
];

/// 64-bit FNV-1a, the checksum that frames v2 table and certificate files.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `content` followed by its checksum line.
fn frame(content: &str) -> String {
    format!("{content}checksum {:016x}\n", fnv1a(content.as_bytes()))
}

/// The content a framed file's checksum covers.
fn unframe(framed: &str) -> &str {
    &framed[..framed.rfind("checksum ").expect("framed file")]
}

/// A file as one of the writers renders it.
fn written(write: impl FnOnce(&mut Vec<u8>) -> protemp::Result<()>) -> String {
    let mut buf = Vec::new();
    write(&mut buf).expect("write to memory");
    String::from_utf8(buf).expect("writers emit UTF-8")
}

/// The v1 table, v2 table and certificate files of an artifact.
fn artifact_files(artifact: &BuildArtifact) -> [String; 3] {
    [
        written(|w| write_table(&artifact.table, w)),
        written(|w| write_table_v2(artifact, w)),
        written(|w| write_certificates(artifact.fingerprint, &artifact.certificates, w)),
    ]
}

/// `(kind, line, token, value)`: delete (0) or duplicate (1) a line, or
/// replace (2), insert (3) or drop (4) a space-separated token, with
/// `line` and `token` taken modulo the counts and `value` indexing
/// [`HOSTILE_TOKENS`].
type Mutation = (u64, usize, usize, usize);

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    (
        0u64..5,
        0usize..1 << 16,
        0usize..1 << 16,
        0..HOSTILE_TOKENS.len(),
    )
}

/// Applies one structured mutation to a line-oriented file.
fn mutate(text: &str, (kind, line, token, value): Mutation) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let li = line % lines.len();
    match kind {
        0 => {
            lines.remove(li);
        }
        1 => lines.insert(li, lines[li].clone()),
        _ => {
            let mut tokens: Vec<&str> = lines[li].split(' ').collect();
            let ti = token % tokens.len();
            match kind {
                2 => tokens[ti] = HOSTILE_TOKENS[value],
                3 => tokens.insert(ti, HOSTILE_TOKENS[value]),
                _ => {
                    tokens.remove(ti);
                }
            }
            lines[li] = tokens.join(" ");
        }
    }
    lines.iter().map(|l| format!("{l}\n")).collect()
}

/// Feeds `bytes` to every reader; each may reject it but none may panic.
fn read_with_every_reader(bytes: &[u8]) {
    let _ = read_table(bytes);
    let _ = read_table_v2(bytes);
    let _ = read_certificates(bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    /// Arbitrary input, with or without a valid header line and with or
    /// without a valid checksum frame, never panics a reader: strings of
    /// raw bytes (ASCII in three cases of four) and reader keywords
    /// separated by spaces and newlines.
    #[test]
    fn readers_are_total_on_arbitrary_input(
        header in 0usize..4,
        ascii_only in 0u64..4,
        pieces in prop::collection::vec(
            (0u64..3, 0u32..256, 0..KEYWORDS.len() + HOSTILE_TOKENS.len()),
            0..160,
        ),
        framed in 0u64..2,
    ) {
        let mut text = ["", "protemp-table v1\n", "protemp-table v2\n", "protemp-certs v1\n"]
            [header]
            .as_bytes()
            .to_vec();
        for (kind, byte, word) in pieces {
            match kind {
                0 if ascii_only > 0 => text.push((byte % 128) as u8),
                0 => text.push(byte as u8),
                _ => {
                    let word = KEYWORDS.iter().chain(&HOSTILE_TOKENS).nth(word);
                    text.extend_from_slice(word.expect("index below both lengths").as_bytes());
                    text.push(if kind == 1 { b' ' } else { b'\n' });
                }
            }
        }
        if framed == 1 {
            let sum = fnv1a(&text);
            text.extend_from_slice(format!("checksum {sum:016x}\n").as_bytes());
        }
        read_with_every_reader(&text);
    }

    /// A structured mutation of a valid file never panics a reader, even
    /// when the mutated content is framed with a fresh checksum so that
    /// only the parser stands between it and the caller.
    #[test]
    fn readers_are_total_on_mutated_files(
        artifact in artifact_strategy(),
        edit in mutation_strategy(),
    ) {
        let [v1, v2, certs] = artifact_files(&artifact);
        read_with_every_reader(mutate(&v1, edit).as_bytes());
        for framed in [&v2, &certs] {
            read_with_every_reader(frame(&mutate(unframe(framed), edit)).as_bytes());
        }
    }

    /// The same mutations without a fresh checksum: no reader accepts a
    /// mutated v2 table or certificate file.
    #[test]
    fn readers_reject_unframed_mutations(
        artifact in artifact_strategy(),
        edit in mutation_strategy(),
    ) {
        let [_, v2, certs] = artifact_files(&artifact);
        for framed in [&v2, &certs] {
            let mutated = mutate(framed, edit);
            if mutated == *framed {
                // Replacing a token by itself changes nothing.
                continue;
            }
            let bytes = mutated.as_bytes();
            prop_assert!(read_table(bytes).is_err(), "read_table accepted:\n{mutated}");
            prop_assert!(read_table_v2(bytes).is_err(), "read_table_v2 accepted:\n{mutated}");
            prop_assert!(
                read_certificates(bytes).is_err(),
                "read_certificates accepted:\n{mutated}"
            );
        }
    }
}

#[test]
fn store_round_trips_via_files() {
    let ctx = context();
    let (artifact, _) = TableBuilder::new()
        .tstarts(vec![60.0, 90.0, 100.0])
        .ftargets(vec![0.3e9, 0.7e9])
        .build_artifact(&ctx)
        .unwrap();
    let ts = TempStore::new("roundtrip");
    ts.store.save("unit", &artifact).unwrap();
    assert!(ts.store.contains("unit"));
    assert!(ts.store.table_path("unit").is_file());
    assert!(ts.store.certs_path("unit").is_file());
    let reloaded = ts.store.load("unit").unwrap();
    assert_eq!(reloaded, artifact, "store round-trip must be exact");

    // Every persisted certificate re-verifies against the live context.
    let mut verified = reloaded;
    assert_eq!(verified.verify_certificates(&ctx), 0);
}

#[test]
fn store_rejects_bad_names_and_missing_tables() {
    let ts = TempStore::new("names");
    for name in ["", "../evil", "a/b", "x..y"] {
        assert!(
            ts.store.load(name).is_err(),
            "name `{name}` must be invalid"
        );
    }
    assert!(ts.store.load("absent").is_err());
    assert!(!ts.store.contains("absent"));
}

#[test]
fn corrupted_certs_file_degrades_to_no_certificates() {
    let ctx = context();
    let (artifact, _) = TableBuilder::new()
        .tstarts(vec![60.0, 100.0])
        .ftargets(vec![0.3e9, 0.8e9])
        .build_artifact(&ctx)
        .unwrap();
    let ts = TempStore::new("certcorrupt");
    ts.store.save("unit", &artifact).unwrap();

    // Truncate the certs file: checksum fails, load degrades.
    let certs_path = ts.store.certs_path("unit");
    let bytes = std::fs::read(&certs_path).unwrap();
    std::fs::write(&certs_path, &bytes[..bytes.len() / 2]).unwrap();
    let degraded = ts.store.load("unit").unwrap();
    assert_eq!(degraded.table, artifact.table, "the table is untouched");
    assert!(
        degraded.certificates.is_empty(),
        "a corrupt certs file must load as an empty pool"
    );

    // Remove it entirely: same degradation.
    std::fs::remove_file(&certs_path).unwrap();
    let absent = ts.store.load("unit").unwrap();
    assert!(absent.certificates.is_empty());

    // And the degraded artifact still drives a correct incremental build.
    let (inc, stats) = TableBuilder::new()
        .tstarts(vec![60.0, 100.0])
        .ftargets(vec![0.3e9, 0.8e9])
        .build_incremental(&ctx, &absent)
        .unwrap();
    assert_eq!(inc.table, artifact.table);
    assert_eq!(
        stats.incremental_screens, 0,
        "no certificates to screen with"
    );
}

#[test]
fn tampered_certificates_are_dropped_on_verification() {
    let ctx = context();
    let (artifact, _) = TableBuilder::new()
        .tstarts(vec![60.0, 100.0])
        .ftargets(vec![0.3e9, 0.9e9])
        .build_artifact(&ctx)
        .unwrap();
    let minted = artifact.certificates.len();
    if minted == 0 {
        // Frontier produced no transferable certificate on this grid —
        // nothing to tamper with (the other tests still cover the path).
        return;
    }
    let mut tampered = artifact.clone();
    // Perturb an anchor coordinate: the re-derived bound collapses and
    // verification must drop the certificate instead of trusting it.
    for sc in &mut tampered.certificates {
        for a in &mut sc.certificate.anchor {
            *a += 1.0e6;
        }
    }
    let dropped = tampered.verify_certificates(&ctx);
    assert_eq!(
        dropped, minted,
        "every tampered certificate must fail re-verification"
    );
    assert!(tampered.certificates.is_empty());
}

/// The acceptance-criterion property, scaled for CI: refining a coarse
/// prior grid incrementally yields a table bit-identical to the cold fine
/// build while reusing prior cells and spending fewer Newton steps.
#[test]
fn incremental_rebuild_is_bit_identical_to_cold_and_cheaper() {
    let ctx = context();
    let coarse = TableBuilder::new()
        .tstarts(vec![55.0, 75.0, 95.0])
        .ftargets(vec![0.2e9, 0.5e9, 0.8e9])
        .threads(1);
    let fine = TableBuilder::new()
        .tstarts(vec![55.0, 65.0, 75.0, 85.0, 95.0])
        .ftargets(vec![0.2e9, 0.35e9, 0.5e9, 0.65e9, 0.8e9])
        .threads(1);

    let (prior, _) = coarse.build_artifact(&ctx).unwrap();

    // Full persistence round-trip: the prior goes through the store files
    // exactly as a real rebuild would consume it.
    let ts = TempStore::new("incremental");
    ts.store.save("coarse", &prior).unwrap();
    let prior = ts.store.load("coarse").unwrap();

    let (cold, cold_stats) = fine.build_artifact(&ctx).unwrap();
    let (inc, inc_stats) = fine.build_incremental(&ctx, &prior).unwrap();

    assert_eq!(
        inc.table, cold.table,
        "incremental rebuild must be bit-identical to the cold build"
    );
    assert!(
        inc_stats.seed_reuses >= 1,
        "the shared coolest row of shared columns must be reused verbatim"
    );
    assert!(
        inc_stats.newton_steps < cold_stats.newton_steps,
        "incremental must be measurably cheaper: {} vs {} Newton steps",
        inc_stats.newton_steps,
        cold_stats.newton_steps
    );
    // The incremental artifact is itself a valid prior: rebuilding the
    // same grid from it reuses every cell and performs no solves at all.
    let (again, again_stats) = fine.build_incremental(&ctx, &inc).unwrap();
    assert_eq!(again.table, cold.table);
    assert_eq!(
        again_stats.seed_reuses as usize,
        again.table.len(),
        "an identical-grid rebuild reuses every cell"
    );
    assert_eq!(again_stats.newton_steps, 0);
}

#[test]
fn inherited_certificates_carry_forward_through_rebuilds() {
    // Default (paper) config: the 100 °C frontier reliably mints
    // transferable certificates.
    let ctx = AssignmentContext::new(&Platform::niagara8(), &ControlConfig::default()).unwrap();
    // Three rows so the columns dying at 100 °C leave a pruned tail at
    // 105 °C — the replay must copy that free tail too, or an
    // identical-grid rebuild would not reuse every cell.
    let grid = TableBuilder::new()
        .tstarts(vec![60.0, 100.0, 105.0])
        .ftargets(vec![0.4e9, 0.6e9])
        .threads(1);
    let (prior, _) = grid.build_artifact(&ctx).unwrap();
    assert!(
        !prior.certificates.is_empty(),
        "the 100 C frontier must mint certificates"
    );
    assert!(
        prior
            .cells
            .iter()
            .any(|rec| rec.status == protemp::CellStatus::Pruned),
        "the hottest row must be frontier-pruned"
    );
    // Identical-grid rebuild: everything replays, nothing re-mints — but
    // the verified inherited proofs must survive into the new artifact,
    // or a chain of rebuilds would shed its frontier certificates.
    let (inc, inc_stats) = grid.build_incremental(&ctx, &prior).unwrap();
    assert_eq!(inc.table, prior.table);
    assert_eq!(inc_stats.newton_steps, 0, "identical grid replays fully");
    assert_eq!(
        inc_stats.seed_reuses as usize,
        prior.table.len(),
        "every cell — including the pruned tail — must replay"
    );
    assert_eq!(
        inc.certificates, prior.certificates,
        "verified prior certificates carry forward"
    );
    let (inc2, _) = grid.build_incremental(&ctx, &inc).unwrap();
    assert_eq!(inc2.certificates, prior.certificates);
}

#[test]
fn fingerprint_mismatch_degrades_to_a_cold_build() {
    let ctx = context();
    let grid = TableBuilder::new()
        .tstarts(vec![60.0, 90.0])
        .ftargets(vec![0.3e9, 0.6e9])
        .threads(1);
    let (mut prior, _) = grid.build_artifact(&ctx).unwrap();
    prior.fingerprint ^= 1; // stale: pretend it came from another context
    let (cold, cold_stats) = grid.build_artifact(&ctx).unwrap();
    let (inc, inc_stats) = grid.build_incremental(&ctx, &prior).unwrap();
    assert_eq!(inc.table, cold.table);
    assert_eq!(inc_stats.seed_reuses, 0, "stale priors must not be reused");
    assert_eq!(inc_stats.incremental_screens, 0);
    assert_eq!(inc_stats.newton_steps, cold_stats.newton_steps);
}
