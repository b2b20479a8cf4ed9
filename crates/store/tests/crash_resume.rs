//! Crash-resume scenarios across the public storage API: every property a
//! resuming master relies on must hold through a process boundary, i.e.
//! after re-`open`ing the hierarchy from disk with no shared state.

use excovery_store::engine::{Column, ColumnType, Database, SqlValue};
use excovery_store::level2::Level2Store;
use std::path::{Path, PathBuf};

fn unique_root(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "excovery-crash-resume-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Seals `run` with one entry whose payload names the attempt.
fn seal(l2: &Level2Store, run: u64, attempt: &[u8]) {
    l2.put_run(run, "node-a", "events.json", attempt).unwrap();
    l2.mark_run_complete(run).unwrap();
}

fn runs_dir_listing(root: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(root.join("runs"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// The resume decision (`first_incomplete_run`) must be derivable purely
/// from disk: a fresh handle sees exactly what the crashed master left.
#[test]
fn resume_point_survives_reopen() {
    let root = unique_root("reopen");
    {
        let l2 = Level2Store::open(&root).unwrap();
        for run in 0..3u64 {
            l2.put_run(run, "node-a", "events.json", b"[]").unwrap();
        }
        l2.mark_run_complete(0).unwrap();
        l2.mark_run_complete(1).unwrap();
        // run 2 collected data but never sealed: the crash landed mid-run.
    }
    let l2 = Level2Store::open(&root).unwrap();
    assert_eq!(l2.run_ids().unwrap(), vec![0, 1]);
    assert_eq!(l2.first_incomplete_run(3).unwrap(), 2);
    assert_eq!(l2.journal_runs().unwrap(), vec![0, 1]);
    // What the unsealed run had staged died with the process; nothing of
    // it is on disk for a later pass to mistake for data.
    assert!(l2.run_entries(2).unwrap().is_empty());
    assert_eq!(runs_dir_listing(&root), vec!["journal.log", "records.log"]);
    l2.destroy().unwrap();
}

/// Damages a root; the second argument is where run 1's record starts
/// in `records.log`.
type DamageFn = fn(&Path, u64);

/// The four on-disk states a crash inside the seal of run 1 can leave,
/// built by construction on top of a cleanly sealed run 0. `prepare`
/// receives the root after run 1 was sealed too and damages it.
fn crashed_seal_states() -> Vec<(&'static str, DamageFn)> {
    fn records(root: &Path) -> PathBuf {
        root.join("runs").join("records.log")
    }
    fn journal(root: &Path) -> PathBuf {
        root.join("runs").join("journal.log")
    }
    fn cut_records(root: &Path, len: u64) {
        std::fs::OpenOptions::new()
            .write(true)
            .open(records(root))
            .unwrap()
            .set_len(len)
            .unwrap();
    }
    vec![
        // Killed while appending the record: part of it, no journal line.
        ("torn record", |root, run1| {
            cut_records(root, run1 + 5);
            std::fs::write(journal(root), b"0\n").unwrap();
        }),
        // Killed between the record append and the journal append.
        ("record without journal line", |root, _| {
            std::fs::write(journal(root), b"0\n").unwrap();
        }),
        // Killed inside the journal append: the line lacks its newline.
        ("record with torn journal line", |root, _| {
            std::fs::write(journal(root), b"0\n1").unwrap();
        }),
        // Not reachable by a crash of the seal itself (the record lands
        // first), but what a lost record looks like.
        ("journal line whose record is missing", |root, run1| {
            cut_records(root, run1);
        }),
    ]
}

/// Each of those states reads as "run 1 is incomplete" after reopen,
/// leaves run 0 alone, and is healed by re-executing and re-sealing run 1
/// — with nothing of the aborted attempt leaking into the new record.
#[test]
fn every_crashed_seal_state_is_incomplete_and_heals() {
    for (state, prepare) in crashed_seal_states() {
        let root = unique_root("seal-crash");
        let run1 = {
            let l2 = Level2Store::open(&root).unwrap();
            seal(&l2, 0, b"[0]");
            let run1 = std::fs::metadata(root.join("runs").join("records.log"))
                .unwrap()
                .len();
            l2.put_run(1, "node-a", "aborted-only.json", b"stale")
                .unwrap();
            seal(&l2, 1, b"[1]");
            run1
        };
        prepare(&root, run1);

        let l2 = Level2Store::open(&root).unwrap();
        assert!(l2.is_run_complete(0).unwrap(), "{state}");
        assert!(!l2.is_run_complete(1).unwrap(), "{state}");
        assert_eq!(l2.run_ids().unwrap(), vec![0], "{state}");
        assert_eq!(l2.first_incomplete_run(3).unwrap(), 1, "{state}");

        // The resumed master re-executes run 1 and seals it again.
        seal(&l2, 1, b"[2]");
        assert!(l2.is_run_complete(1).unwrap(), "{state}");
        assert_eq!(l2.journal_runs().unwrap(), vec![0, 1], "{state}");
        assert_eq!(l2.first_incomplete_run(3).unwrap(), 2, "{state}");
        assert_eq!(
            l2.run_entries(1).unwrap(),
            vec![("node-a".to_string(), "events.json".to_string())],
            "{state}"
        );
        assert_eq!(l2.get_run(1, "node-a", "events.json").unwrap(), b"[2]");
        assert_eq!(l2.get_run(0, "node-a", "events.json").unwrap(), b"[0]");
        // And it stays healed through another process boundary.
        drop(l2);
        let l2 = Level2Store::open(&root).unwrap();
        assert_eq!(l2.first_incomplete_run(3).unwrap(), 2, "{state}");
        l2.destroy().unwrap();
    }
}

/// A journal damaged anywhere but in its unterminated tail is reported,
/// not read as "nothing completed" (which would silently restart the
/// campaign from run 0).
#[test]
fn damaged_journal_is_reported_after_reopen() {
    let root = unique_root("damaged");
    {
        let l2 = Level2Store::open(&root).unwrap();
        seal(&l2, 0, b"[0]");
        seal(&l2, 1, b"[1]");
    }
    std::fs::write(
        root.join("runs").join("journal.log"),
        b"0\n{\"completed\":[1]}\n",
    )
    .unwrap();
    let l2 = Level2Store::open(&root).unwrap();
    let e = l2.first_incomplete_run(2).unwrap_err();
    assert!(e.0.contains("line 2 is not a run id"), "{e}");
    assert!(l2.is_run_complete(0).is_err());
    l2.destroy().unwrap();
}

/// `Database::save` is write-then-rename: after any number of saves the
/// directory holds exactly the database file, no temp droppings, and the
/// loaded copy equals the saved one.
#[test]
fn database_save_leaves_no_temp_files_and_roundtrips() {
    let root = unique_root("dbsave");
    std::fs::create_dir_all(&root).unwrap();
    let path = root.join("results.xdb");

    let mut db = Database::new();
    db.create_table(
        "Runs",
        vec![
            Column::new("Run", ColumnType::Integer),
            Column::new("Outcome", ColumnType::Text),
        ],
    )
    .unwrap();
    for i in 0..5 {
        db.insert(
            "Runs",
            vec![SqlValue::Int(i), SqlValue::Text(format!("ok-{i}"))],
        )
        .unwrap();
        db.save(&path).unwrap();
    }

    let leftovers: Vec<String> = std::fs::read_dir(&root)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n != "results.xdb")
        .collect();
    assert!(leftovers.is_empty(), "temp files survived: {leftovers:?}");

    let loaded = Database::load(&path).unwrap();
    assert_eq!(loaded.table("Runs").unwrap(), db.table("Runs").unwrap());
    std::fs::remove_dir_all(&root).unwrap();
}

/// Level-2 listings ignore stray files beside the records, such as the
/// temp files a crash of the older one-file-per-run seal stranded.
#[test]
fn stranded_temp_files_never_surface_as_measurements() {
    let root = unique_root("stranded");
    let l2 = Level2Store::open(&root).unwrap();
    seal(&l2, 0, b"[]");
    std::fs::write(root.join("runs").join(".0.run.tmp-999-0"), b"torn").unwrap();
    std::fs::write(root.join("runs").join(".1.run.tmp-999-1"), b"torn").unwrap();
    assert_eq!(l2.run_ids().unwrap(), vec![0]);
    assert_eq!(
        l2.run_entries(0).unwrap(),
        vec![("node-a".to_string(), "events.json".to_string())]
    );
    assert!(l2.run_entries(1).unwrap().is_empty());
    l2.destroy().unwrap();
}
