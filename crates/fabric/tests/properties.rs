//! Property tests of the fabric: randomized DMA programs against a simple
//! byte-array model, and range-lock behaviour under random access patterns.

use hs_fabric::{Fabric, NodeId};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    /// Write a constant into a host range.
    HostFill { off: u8, len: u8, val: u8 },
    /// DMA host[off..] -> card[off2..].
    H2D { src: u8, dst: u8, len: u8 },
    /// DMA card[off..] -> host[off2..].
    D2H { src: u8, dst: u8, len: u8 },
}

const SIZE: usize = 128;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..96, 1u8..32, any::<u8>()).prop_map(|(off, len, val)| Op::HostFill { off, len, val }),
        (0u8..96, 0u8..96, 1u8..32).prop_map(|(src, dst, len)| Op::H2D { src, dst, len }),
        (0u8..96, 0u8..96, 1u8..32).prop_map(|(src, dst, len)| Op::D2H { src, dst, len }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Any sequential DMA program produces the same bytes as the model.
    #[test]
    fn dma_program_matches_model(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let fabric = Fabric::new(2);
        let host = fabric.register(NodeId::HOST, SIZE);
        let card = fabric.register(NodeId(1), SIZE);
        let mut m_host = [0u8; SIZE];
        let mut m_card = [0u8; SIZE];
        for op in &ops {
            match *op {
                Op::HostFill { off, len, val } => {
                    let (off, len) = (off as usize, len as usize);
                    let end = (off + len).min(SIZE);
                    {
                        let mem = fabric.window(host).expect("window");
                        let mut g = mem.lock_range(off..end, true).expect("lock");
                        g.as_mut_slice().fill(val);
                    }
                    m_host[off..end].fill(val);
                }
                Op::H2D { src, dst, len } => {
                    let (src, dst, mut len) = (src as usize, dst as usize, len as usize);
                    len = len.min(SIZE - src).min(SIZE - dst);
                    fabric.dma_copy(host, src, card, dst, len).expect("h2d");
                    let tmp = m_host[src..src + len].to_vec();
                    m_card[dst..dst + len].copy_from_slice(&tmp);
                }
                Op::D2H { src, dst, len } => {
                    let (src, dst, mut len) = (src as usize, dst as usize, len as usize);
                    len = len.min(SIZE - src).min(SIZE - dst);
                    fabric.dma_copy(card, src, host, dst, len).expect("d2h");
                    let tmp = m_card[src..src + len].to_vec();
                    m_host[dst..dst + len].copy_from_slice(&tmp);
                }
            }
        }
        let mem = fabric.window(host).expect("window");
        let g = mem.lock_range(0..SIZE, false).expect("lock");
        prop_assert_eq!(g.as_slice(), &m_host[..]);
        drop(g);
        let mem = fabric.window(card).expect("window");
        let g = mem.lock_range(0..SIZE, false).expect("lock");
        prop_assert_eq!(g.as_slice(), &m_card[..]);
    }

    /// try_lock admits exactly the non-conflicting subset of a random set of
    /// range requests (taken greedily in order).
    #[test]
    fn try_lock_greedy_admission(
        reqs in proptest::collection::vec((0usize..100, 1usize..40, any::<bool>()), 1..12),
    ) {
        let fabric = Fabric::new(1);
        let w = fabric.register(NodeId::HOST, 128);
        let mem = fabric.window(w).expect("window");
        let mut held: Vec<(std::ops::Range<usize>, bool)> = Vec::new();
        let mut guards = Vec::new();
        for (start, len, write) in reqs {
            let range = start..(start + len).min(128);
            let conflicts = held.iter().any(|(r, w2)| {
                r.start < range.end && range.start < r.end && (*w2 || write)
            });
            let got = mem.try_lock_range(range.clone(), write).expect("in bounds");
            prop_assert_eq!(got.is_some(), !conflicts, "admission must match the conflict rule");
            if let Some(g) = got {
                held.push((range, write));
                guards.push(g);
            }
        }
        drop(guards);
        prop_assert_eq!(mem.active_guards(), 0);
    }
}

mod concurrency {
    use super::*;

    #[test]
    fn parallel_dma_storm_is_linearizable_per_disjoint_region() {
        // 16 threads each own a disjoint 512-byte region and round-trip it
        // h2d/d2h many times; final contents must be each thread's last
        // pattern.
        let fabric = std::sync::Arc::new(Fabric::new(2));
        let host = fabric.register(NodeId::HOST, 16 * 512);
        let card = fabric.register(NodeId(1), 16 * 512);
        std::thread::scope(|s| {
            for t in 0..16usize {
                let fabric = fabric.clone();
                s.spawn(move || {
                    let off = t * 512;
                    for round in 0..20u8 {
                        {
                            let mem = fabric.window(host).expect("window");
                            let mut g = mem.lock_range(off..off + 512, true).expect("lock");
                            g.as_mut_slice().fill(round.wrapping_mul(t as u8 + 1));
                        }
                        fabric.dma_copy(host, off, card, off, 512).expect("h2d");
                        fabric.dma_copy(card, off, host, off, 512).expect("d2h");
                    }
                });
            }
        });
        let mem = fabric.window(host).expect("window");
        let g = mem.lock_range(0..16 * 512, false).expect("lock");
        for t in 0..16usize {
            let expect = 19u8.wrapping_mul(t as u8 + 1);
            assert!(
                g.as_slice()[t * 512..(t + 1) * 512]
                    .iter()
                    .all(|&b| b == expect),
                "region {t} holds its last round's pattern"
            );
        }
    }
}
