//! Live heap of a level-3 table per stored row, read from a counting
//! global allocator: a table holds typed column vectors, so a row of
//! integers and short text costs its cells' bytes plus vector slack, not
//! one heap row with a heap string per text cell.
//!
//! Run with `--nocapture` to see the bytes per row each shape reads.

use excovery_store::{Column, ColumnType, SqlValue, Table};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Mutex;

/// The system allocator, counting the bytes currently allocated.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The tests measure one at a time, so neither counts the other's heap.
static MEASURING: Mutex<()> = Mutex::new(());

const ROWS: usize = 25_000;

/// The live heap per row, in bytes, of a table of `ROWS` rows made by `row`.
fn bytes_per_row(columns: Vec<Column>, mut row: impl FnMut(usize) -> Vec<SqlValue>) -> f64 {
    let before = LIVE.load(Ordering::Relaxed);
    let mut table = Table::new(columns);
    for i in 0..ROWS {
        table.insert(row(i)).unwrap();
    }
    let live = LIVE.load(Ordering::Relaxed) - before;
    assert_eq!(table.len(), ROWS);
    drop(table);
    live as f64 / ROWS as f64
}

/// The benchmark's `warehouse` fact table: five integers and a
/// three-character service name per row.
#[test]
fn warehouse_rows_cost_at_most_64_bytes_each() {
    let _one = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    use ColumnType::{Integer, Text};
    let per_row = bytes_per_row(
        vec![
            Column::new("ExpKey", Integer),
            Column::new("RunKey", Integer),
            Column::new("SuNodeKey", Integer),
            Column::new("Service", Text),
            Column::new("SearchStart", Integer),
            Column::new("ResponseTimeNs", Integer),
        ],
        |i| {
            vec![
                SqlValue::Int(2),
                SqlValue::Int(17),
                SqlValue::Int((i % 4) as i64),
                SqlValue::Text(format!("sm{}", i % 4)),
                SqlValue::Int(510_000_000_000),
                SqlValue::Int(1_000_000 + (i / 16 * 7_919 % 2_000_000_000) as i64),
            ]
        },
    );
    println!("warehouse: {per_row:.1} B per row");
    assert!(per_row <= 64.0, "{per_row:.1} B per row");
}

/// The `Packets` table with 16-byte captures: two integers, two node
/// names and the blob, which may cost its own bytes on top.
#[test]
fn packet_rows_cost_at_most_64_bytes_each_beyond_their_blobs() {
    let _one = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    use ColumnType::{Blob, Integer, Text};
    const BLOB: usize = 16;
    let per_row = bytes_per_row(
        vec![
            Column::new("RunID", Integer),
            Column::new("NodeID", Text),
            Column::new("CommonTime", Integer),
            Column::new("SrcNodeID", Text),
            Column::new("Data", Blob),
        ],
        |i| {
            vec![
                SqlValue::Int((i / 1_000) as i64),
                SqlValue::Text(format!("t9-{}", 100 + i % 50)),
                SqlValue::Int(i as i64 * 1_250),
                SqlValue::Text(format!("t9-{}", 100 + i % 7)),
                SqlValue::Blob(vec![i as u8; BLOB]),
            ]
        },
    );
    println!("packets: {per_row:.1} B per row with {BLOB} blob bytes");
    assert!(
        per_row <= (64 + BLOB) as f64,
        "{per_row:.1} B per row with {BLOB} blob bytes"
    );
}
