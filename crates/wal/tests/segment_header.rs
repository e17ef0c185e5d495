//! Segment headers are checked field by field. A segment whose header
//! disagrees with the format (magic, version), with its file name
//! (partition, seq) or with the run adopted from the first valid header is
//! dropped whole, with a note, and the rest of its partition after it.
//! Every mutation below re-seals the header CRC, so the field check is what
//! refuses the segment, not the checksum.

use hs_wal::{crc32, recover_dir, Wal, WalOptions, HEADER_LEN, VERSION};
use std::fs;
use std::path::{Path, PathBuf};

#[path = "../../core/tests/support/mutate.rs"]
mod mutate;

const RUN: u64 = 0x5EED;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "hswal-header-{}-{tag}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

/// One record per segment of partition 0, so segment seq `k` holds the
/// `k`-th event of `events`. Returns the segment paths in seq order.
fn write_run(dir: &Path, run_id: u64, events: std::ops::Range<u64>) -> Vec<PathBuf> {
    let opts = WalOptions {
        segment_bytes: 1,
        ..WalOptions::default()
    };
    let mut wal = Wal::create(dir, run_id, opts).unwrap();
    for ev in events {
        wal.append(0, ev, &ev.to_le_bytes()).unwrap();
    }
    wal.flush().unwrap();
    drop(wal);
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segs.sort();
    segs
}

/// Overwrite header bytes `at..` of `seg` and re-seal the header CRC.
fn mutate_header(seg: &Path, at: usize, bytes: &[u8]) {
    let mut data = fs::read(seg).unwrap();
    data[at..at + bytes.len()].copy_from_slice(bytes);
    let crc = crc32(&data[..HEADER_LEN - 4]);
    data[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    fs::write(seg, data).unwrap();
}

fn events(dir: &Path) -> (Vec<u64>, Option<u64>, Vec<String>) {
    let rec = recover_dir(dir).unwrap();
    let evs = rec.records.iter().map(|r| r.ev).collect();
    (evs, rec.run_id, rec.torn)
}

#[test]
fn each_mutated_header_field_drops_its_segment() {
    let fields: [(&str, usize, Vec<u8>); 5] = [
        ("magic", 0, b"HSWAL9\0\0".to_vec()),
        ("version", 8, (VERSION + 1).to_le_bytes().to_vec()),
        ("partition", 10, 1u32.to_le_bytes().to_vec()),
        ("run", 14, (RUN + 1).to_le_bytes().to_vec()),
        // The second segment claims to be the first.
        ("seq", 22, 0u32.to_le_bytes().to_vec()),
    ];
    for (field, at, bytes) in fields {
        let dir = tmpdir(field);
        let segs = write_run(&dir, RUN, 1..4);
        assert_eq!(segs.len(), 3, "one segment per record");
        assert_eq!(events(&dir).0, [1, 2, 3], "{field}: intact before mutation");
        mutate_header(&segs[1], at, &bytes);
        let (evs, run, torn) = events(&dir);
        assert_eq!(evs, [1], "{field}: only the segment before it survives");
        assert_eq!(run, Some(RUN), "{field}");
        assert!(
            torn.iter().any(|t| t.starts_with("partition 0x0 seq 1:")),
            "{field}: {torn:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

/// A valid segment of another run, copied into a run directory. Under a
/// name that sorts before the run's own segments, the scan adopts the run
/// it names and drops the real ones, so `run_id` shows the caller the
/// directory holds another run (`HStreams::recover` refuses it). Under a
/// later name, it is the one dropped.
#[test]
fn a_copied_in_segment_of_another_run() {
    let (own, foreign) = (tmpdir("own"), tmpdir("foreign"));
    let own_segs = write_run(&own, RUN, 1..4);
    let foreign_segs = write_run(&foreign, RUN + 1, 100..104);

    // Sorting last: seq 3 of the other run lands after the own seqs 0..=2.
    fs::copy(
        &foreign_segs[3],
        own.join(foreign_segs[3].file_name().unwrap()),
    )
    .unwrap();
    let (evs, run, torn) = events(&own);
    assert_eq!(evs, [1, 2, 3]);
    assert_eq!(run, Some(RUN));
    assert!(
        torn.iter()
            .any(|t| t.contains("seq 3") && t.contains("run 0x5eee")),
        "{torn:?}"
    );

    // Sorting first: the own run's seq 0 was retired, the other run's seq 0
    // is copied in ahead of its seq 1.
    fs::remove_file(own.join(foreign_segs[3].file_name().unwrap())).unwrap();
    fs::remove_file(&own_segs[0]).unwrap();
    fs::copy(&foreign_segs[0], &own_segs[0]).unwrap();
    let (evs, run, torn) = events(&own);
    assert_eq!(evs, [100], "the scan replays only the run it adopted");
    assert_eq!(run, Some(RUN + 1), "and names that run");
    assert!(
        torn.iter()
            .any(|t| t.contains("seq 1") && t.contains("run 0x5eed")),
        "{torn:?}"
    );
    let _ = fs::remove_dir_all(&own);
    let _ = fs::remove_dir_all(&foreign);
}

/// Untrusted header bytes: 64 seeded mutations (bit flips, an overwritten
/// range, a truncation or an insertion — CRC left as the mutation leaves
/// it) of the one segment of the middle partition of a three-partition run.
/// Every scan drops that segment with a note and keeps the other two
/// partitions' events exactly: no panic, no event the run did not write.
#[test]
fn seeded_mutations_of_a_segment_header_drop_only_that_segment() {
    for seed in 0..64 {
        let dir = tmpdir(&format!("mutated-{seed}"));
        let mut wal = Wal::create(&dir, RUN, WalOptions::default()).unwrap();
        for part in 0..3u32 {
            let ev = u64::from(part) + 1;
            wal.append(part, ev, &ev.to_le_bytes()).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        let mut segs: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        segs.sort();
        assert_eq!(segs.len(), 3, "one segment per partition");
        let data = fs::read(&segs[1]).unwrap();
        let mut header = data[..HEADER_LEN].to_vec();
        mutate::mutate(&mut header, seed);
        header.extend_from_slice(&data[HEADER_LEN..]);
        fs::write(&segs[1], header).unwrap();
        let (evs, run, torn) = events(&dir);
        assert_eq!(evs, [1, 3], "seed {seed}: {torn:?}");
        assert_eq!(run, Some(RUN), "seed {seed}");
        assert!(
            torn.iter().any(|t| t.starts_with("partition 0x1 seq 0:")),
            "seed {seed}: {torn:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
