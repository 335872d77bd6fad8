//! The table readers size their grid from the entries they actually
//! parsed, not from the axes a file declares: a file whose `tstarts` and
//! `ftargets` lines each list 20 000 values but that holds one `entry`
//! line must be rejected as a format error before `rows × cols` cells
//! (28.8 GB) are allocated.
//!
//! A global allocator refuses any single request above 1 GiB, so a reader
//! that allocates from the declared axes aborts this test binary instead
//! of exhausting the machine's memory.

use std::alloc::{GlobalAlloc, Layout, System};

use protemp::{read_table, read_table_v2, ProTempError};

/// The largest single allocation this test binary grants.
const MAX_REQUEST_BYTES: usize = 1 << 30;

/// The system allocator, refusing any single request above
/// [`MAX_REQUEST_BYTES`]. A refusal returns null, which the standard
/// collections turn into an abort.
struct BoundedAlloc;

// SAFETY: every method either returns null — the `GlobalAlloc` contract's
// way to report an allocation failure — or forwards its arguments
// unchanged to `System`, so `System`'s guarantees carry over. Every block
// `dealloc` or `realloc` receives was handed out by `System` here.
unsafe impl GlobalAlloc for BoundedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > MAX_REQUEST_BYTES {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller's `layout` obligations are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > MAX_REQUEST_BYTES {
            return std::ptr::null_mut();
        }
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller's `new_size` obligations are passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: BoundedAlloc = BoundedAlloc;

/// The `mode`, axis and single `entry` lines shared by both layouts: a
/// 20 000 × 20 000 grid declared, one cell present.
fn huge_axes_body() -> String {
    let axis: Vec<String> = (1..=20_000).map(|v| v.to_string()).collect();
    let axis = axis.join(" ");
    format!("mode variable\ntstarts {axis}\nftargets {axis}\nentry 0 0 infeasible\n")
}

/// 64-bit FNV-1a, the checksum that frames v2 files.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn assert_count_rejection(result: Result<impl std::fmt::Debug, ProTempError>) {
    match result {
        Err(ProTempError::TableFormat { reason }) => assert!(
            reason.contains("expected 400000000 entries, found 1"),
            "want an entry-count rejection, got: {reason}"
        ),
        other => panic!("want a format error, got {other:?}"),
    }
}

#[test]
fn v1_reader_rejects_huge_axes_without_allocating_the_grid() {
    let text = format!("protemp-table v1\n{}", huge_axes_body());
    assert_count_rejection(read_table(text.as_bytes()));
}

#[test]
fn v2_readers_reject_huge_axes_without_allocating_the_grid() {
    // Anyone can recompute the checksum, so a crafted v2 file reaches the
    // grid assembly as easily as a v1 file.
    let content = format!(
        "protemp-table v2\nfingerprint 0000000000000000\nwarmstart 0\n{}",
        huge_axes_body()
    );
    let text = format!("{content}checksum {:016x}\n", fnv1a(content.as_bytes()));
    assert_count_rejection(read_table_v2(text.as_bytes()));
    assert_count_rejection(read_table(text.as_bytes()));
}
