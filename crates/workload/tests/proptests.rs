//! Property-based tests for the workload generator and the trace CSV reader.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use protemp_workload::{io, ArrivalPattern, BenchmarkProfile, Task, Trace, TraceGenerator};

fn any_profile() -> impl Strategy<Value = BenchmarkProfile> {
    (1_000u64..5_000, 5_000u64..10_000, 0.2..1.2f64, 0usize..3).prop_map(
        |(min_w, max_w, load, pat)| BenchmarkProfile {
            name: "prop".to_string(),
            min_work_us: min_w,
            max_work_us: max_w,
            load,
            pattern: match pat {
                0 => ArrivalPattern::Poisson,
                1 => ArrivalPattern::Bursty {
                    mean_on_s: 0.3,
                    mean_off_s: 0.2,
                },
                _ => ArrivalPattern::Periodic { jitter: 0.1 },
            },
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn traces_sorted_ids_unique(profile in any_profile(), seed in 0u64..1000) {
        let trace = TraceGenerator::new(seed).generate(&profile, 3.0, 8);
        prop_assert!(trace.is_sorted_by_arrival());
        let mut ids: Vec<u64> = trace.tasks().iter().map(|t| t.id).collect();
        let before = ids.len();
        ids.dedup();
        prop_assert_eq!(ids.len(), before, "task ids must be unique");
    }

    #[test]
    fn work_respects_profile_bounds(profile in any_profile(), seed in 0u64..1000) {
        let trace = TraceGenerator::new(seed).generate(&profile, 2.0, 8);
        for t in trace.tasks() {
            prop_assert!(t.work_us >= profile.min_work_us);
            prop_assert!(t.work_us <= profile.max_work_us);
        }
    }

    #[test]
    fn same_seed_same_trace(profile in any_profile(), seed in 0u64..1000) {
        let a = TraceGenerator::new(seed).generate(&profile, 2.0, 8);
        let b = TraceGenerator::new(seed).generate(&profile, 2.0, 8);
        prop_assert_eq!(a.tasks(), b.tasks());
    }

    #[test]
    fn offered_load_tracks_target_for_poisson(load in 0.3..1.2f64, seed in 0u64..100) {
        let profile = BenchmarkProfile {
            name: "poisson".to_string(),
            min_work_us: 2_000,
            max_work_us: 8_000,
            load,
            pattern: ArrivalPattern::Poisson,
        };
        // Long trace so the law of large numbers bites.
        let trace = TraceGenerator::new(seed).generate(&profile, 40.0, 8);
        let measured = trace.stats(8).offered_load;
        prop_assert!(
            (measured - load).abs() < 0.2 * load + 0.05,
            "load {measured:.3} vs target {load:.3}"
        );
    }

    #[test]
    fn window_preserves_order_and_rebases(seed in 0u64..100) {
        let profile = BenchmarkProfile::multimedia();
        let trace = TraceGenerator::new(seed).generate(&profile, 4.0, 8);
        let w = trace.window(1_000_000, 3_000_000);
        prop_assert!(w.is_sorted_by_arrival());
        for t in w.tasks() {
            prop_assert!(t.arrival_us < 2_000_000);
        }
    }

    #[test]
    fn mix_has_tasks_from_whole_range(seed in 0u64..100) {
        let profiles = [
            BenchmarkProfile::web_serving(),
            BenchmarkProfile::multimedia(),
            BenchmarkProfile::compute_intensive(),
        ];
        let trace = TraceGenerator::new(seed).generate_mix(&profiles, 1.0, 6.0, 8);
        prop_assert!(!trace.is_empty());
        let last = trace.tasks().last().unwrap().arrival_us;
        prop_assert!(last >= 4_000_000, "tasks reach the final segments");
    }
}

/// The header `write_trace_csv` writes.
const HEADER: &str = "id,arrival_us,work_us";

/// Field values no `u64` parse accepts: negative, one past `u64::MAX`,
/// exponent notation, NaN, empty.
const NON_U64: [&str; 5] = ["-1", "18446744073709551616", "1e3", "nan", ""];

/// `read_trace_csv` on `text`; an accepted trace must survive a write/read
/// round trip unchanged (it holds only what the writer can express).
fn read_checked(text: &str) -> Result<Option<Trace>, TestCaseError> {
    match io::read_trace_csv(text.as_bytes()) {
        Ok(trace) => {
            let mut buf = Vec::new();
            io::write_trace_csv(&trace, &mut buf).unwrap();
            let again = io::read_trace_csv(buf.as_slice()).unwrap();
            prop_assert_eq!(&again, &trace);
            Ok(Some(trace))
        }
        Err(_) => Ok(None),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, with and without the header, never panic the
    /// reader. Half the bytes come from the CSV alphabet so that lines get
    /// past the header and the field parser.
    #[test]
    fn read_trace_csv_is_total_on_arbitrary_bytes(
        codes in prop::collection::vec(0u32..512, 0..96),
        with_header in 0usize..2,
    ) {
        const ALPHABET: &[u8] = b"0123456789,,,\n\n -+e.naN\r\t";
        let mut bytes: Vec<u8> = if with_header == 1 {
            format!("{HEADER}\n").into_bytes()
        } else {
            Vec::new()
        };
        bytes.extend(codes.iter().map(|&c| match c {
            0..=255 => c as u8,
            _ => ALPHABET[c as usize % ALPHABET.len()],
        }));
        match io::read_trace_csv(bytes.as_slice()) {
            Ok(trace) => {
                let mut buf = Vec::new();
                io::write_trace_csv(&trace, &mut buf).unwrap();
                prop_assert_eq!(io::read_trace_csv(buf.as_slice()).unwrap(), trace);
            }
            Err(e) => prop_assert!(!e.reason.is_empty()),
        }
    }

    /// Mutations of a written trace never panic the reader: deleting or
    /// duplicating a line, and replacing, inserting or dropping a field
    /// (with a non-`u64` token, or a valid one as a fourth field). Every
    /// mutation that adds a field, drops one or makes one non-`u64` is
    /// rejected.
    #[test]
    fn read_trace_csv_rejects_field_mutations_of_written_traces(
        tasks in prop::collection::vec((0u64..u64::MAX, 0u64..u64::MAX, 1u64..u64::MAX), 0..6),
        kind in 0usize..5,
        line_pick in 0usize..64,
        field_pick in 0usize..4,
        token_pick in 0usize..6,
    ) {
        let trace = Trace::new(tasks.iter().map(|&(id, at, w)| Task::new(id, at, w)).collect());
        let mut buf = Vec::new();
        io::write_trace_csv(&trace, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        prop_assert_eq!(read_checked(&text)?, Some(trace));

        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let at = line_pick % lines.len();
        let mut fields: Vec<String> = lines[at].split(',').map(str::to_string).collect();
        let bad = NON_U64[token_pick % NON_U64.len()].to_string();
        let must_reject = match kind {
            0 => {
                lines.remove(at);
                false
            }
            1 => {
                lines.insert(at, lines[at].clone());
                false
            }
            2 => {
                let f = field_pick % fields.len();
                fields[f] = bad;
                true
            }
            3 => {
                // Insert a non-u64 token, or a valid `7` as an extra field.
                let token = if token_pick == NON_U64.len() { "7".to_string() } else { bad };
                fields.insert(field_pick % (fields.len() + 1), token);
                true
            }
            _ => {
                fields.remove(field_pick % fields.len());
                true
            }
        };
        if kind >= 2 {
            lines[at] = fields.join(",");
        }
        let mutated = lines.join("\n") + "\n";
        let outcome = read_checked(&mutated)?;
        if must_reject {
            prop_assert!(outcome.is_none(), "accepted mutation {} of line {}: {:?}", kind, at, mutated);
        }
    }
}
