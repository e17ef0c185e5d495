//! Property (the torn-write shape from `crates/wal`): whatever corruption
//! hits a cache entry — truncation at any byte, one flipped byte anywhere,
//! or seeded overwrites of its blob header and payload — `TunerCache::load`
//! answers `None` or the exact stored config, never a different one, and
//! never panics. A damaged cache can only cost a re-tune.

use hs_tune::{MachineSig, TunedConfig, TunerCache, WorkloadSig};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;

fn tmpdir(tag: u64) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "hs-tune-prop-{}-{tag}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

fn sigs() -> (WorkloadSig, MachineSig) {
    (
        WorkloadSig::new("prop", 4096, 8),
        MachineSig {
            host_cores: 28,
            cards: 1,
            card_cores: 60,
            link_latency_us_bits: 10f64.to_bits(),
            link_h2d_bits: 6.0e9f64.to_bits(),
            link_d2h_bits: 6.0e9f64.to_bits(),
        },
    )
}

/// splitmix64: one seed's stream of mutations.
fn next(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded mutation of a stored entry, in the shape of the wire codec's
/// frame test: the 20-byte blob header (magic, payload length, CRC) and
/// the payload are overwritten, the length field also with values up to
/// `u64::MAX`, where `20 + len` overflows. Whatever the file holds, `load`
/// answers a miss or the stored config.
#[test]
fn mutated_entries_miss_and_never_panic() {
    let (w, m) = sigs();
    for seed in 1..=8u64 {
        let dir = tmpdir(0x2_000_000 + seed);
        let stored = TunedConfig {
            streams_per_card: seed as u32,
            mask_width: 2 * seed as u32,
            tile: 64 * seed as usize,
        };
        let cache = TunerCache::open(&dir).unwrap();
        cache.store(&w, &m, &stored).unwrap();
        let entry = cache.entry_path(&w, &m);
        let data = fs::read(&entry).unwrap();
        let check = |bad: &[u8], what: String| {
            fs::write(&entry, bad).unwrap();
            let got = cache.load(&w, &m);
            assert!(
                got.is_none() || got == Some(stored),
                "seed {seed}, {what}: served {got:?}"
            );
        };
        // The length field (bytes 8..16) at and around every edge.
        let len = (data.len() - 20) as u64;
        let edges = [0, 1, len - 1, len + 1, 1 << 63, u64::MAX / 2];
        for field in edges.into_iter().chain((0..=20).map(|k| u64::MAX - k)) {
            let mut bad = data.clone();
            bad[8..16].copy_from_slice(&field.to_le_bytes());
            check(&bad, format!("length field {field:#x}"));
        }
        // One to four random byte overwrites, each inside the header half
        // the time; a quarter of the rounds also set the length's top bits.
        let mut x = seed;
        for round in 0..64 {
            let mut bad = data.clone();
            for _ in 0..=next(&mut x) % 4 {
                let r = next(&mut x);
                let span = if r & 1 == 0 { 20 } else { bad.len() };
                bad[(r >> 1) as usize % span] = (r >> 40) as u8;
            }
            if next(&mut x).is_multiple_of(4) {
                let field = next(&mut x) | 0xFFFF_FFFF_0000_0000;
                bad[8..16].copy_from_slice(&field.to_le_bytes());
            }
            check(&bad, format!("round {round}"));
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn truncate_anywhere_never_yields_a_phantom_config(
        streams in 1u32..16,
        width in 1u32..32,
        tile in 1usize..5000,
        cut_frac in 0.0f64..1.0,
        tag in 0u64..1_000_000,
    ) {
        let dir = tmpdir(tag);
        let (w, m) = sigs();
        let stored = TunedConfig { streams_per_card: streams, mask_width: width, tile };
        let cache = TunerCache::open(&dir).unwrap();
        cache.store(&w, &m, &stored).unwrap();
        let entry = cache.entry_path(&w, &m);
        let data = fs::read(&entry).unwrap();
        let cut = (data.len() as f64 * cut_frac) as usize;
        fs::write(&entry, &data[..cut]).unwrap();

        let got = cache.load(&w, &m);
        prop_assert!(
            got.is_none() || got == Some(stored),
            "truncation at {cut}/{} produced a different config: {got:?}",
            data.len()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flip_any_byte_never_yields_a_phantom_config(
        streams in 1u32..16,
        width in 1u32..32,
        tile in 1usize..5000,
        at in 0usize..4096,
        flip in 1u8..255,
        tag in 0u64..1_000_000,
    ) {
        let dir = tmpdir(0x1_000_000 + tag);
        let (w, m) = sigs();
        let stored = TunedConfig { streams_per_card: streams, mask_width: width, tile };
        let cache = TunerCache::open(&dir).unwrap();
        cache.store(&w, &m, &stored).unwrap();
        let entry = cache.entry_path(&w, &m);
        let mut data = fs::read(&entry).unwrap();
        let off = at % data.len();
        data[off] ^= flip;
        fs::write(&entry, &data).unwrap();

        let got = cache.load(&w, &m);
        prop_assert!(
            got.is_none(),
            "a flipped byte at {off} must fail the CRC/signature checks, got {got:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
