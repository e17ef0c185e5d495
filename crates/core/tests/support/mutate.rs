//! Seeded mutation of untrusted bytes, shared by the checkpoint tests in
//! `tests/durability.rs` and `src/durable.rs` and by hs-wal's segment
//! header test (`crates/wal/tests/segment_header.rs`).

fn rng_next(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// One seeded mutation of `b`, never a no-op: 1–8 distinct bit flips
/// anywhere, a byte range overwritten with different bytes, or a truncation
/// or an insertion at a random offset.
pub fn mutate(b: &mut Vec<u8>, seed: u64) {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut below = |n: usize| (rng_next(&mut s) % n as u64) as usize;
    match below(3) {
        0 => {
            let mut bits = Vec::new();
            let flips = 1 + below(8);
            while bits.len() < flips {
                let bit = below(b.len() * 8);
                if !bits.contains(&bit) {
                    bits.push(bit);
                }
            }
            for bit in bits {
                b[bit / 8] ^= 1 << (bit % 8);
            }
        }
        1 => {
            let start = below(b.len());
            let len = 1 + below(b.len() - start);
            for x in &mut b[start..start + len] {
                *x ^= 1 + below(255) as u8;
            }
        }
        _ => {
            let at = below(b.len());
            if below(2) == 0 {
                b.truncate(at);
            } else {
                let extra: Vec<u8> = (0..1 + below(64)).map(|_| below(256) as u8).collect();
                b.splice(at..at, extra);
            }
        }
    }
}
