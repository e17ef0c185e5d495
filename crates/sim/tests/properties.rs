//! Property tests of the discrete-event engine: virtual-time monotonicity,
//! capacity limits, conservation of work, and determinism across repeated
//! runs. The engine keeps no record of what ran, so each job is read back
//! from its completion token: it ended at the token's fire time and
//! started one service time earlier.

use hs_sim::{Dur, ServerId, Sim, Time, Token};
use proptest::prelude::*;

/// Enqueue one ungated job per duration on `server`, returning each job's
/// completion token with its service time in ns.
fn enqueue_all(sim: &mut Sim, server: ServerId, durs: &[u64]) -> Vec<(Token, u64)> {
    durs.iter()
        .map(|d| (sim.server_enqueue(server, Dur::from_nanos(*d), None), *d))
        .collect()
}

/// A completed job's service window `(start, end)` in ns.
fn window(sim: &Sim, (tok, service): (Token, u64)) -> (u64, u64) {
    let end = sim.token_fire_time(tok).expect("job completes").as_nanos();
    (end - service, end)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// A serial server conserves work: the last completion equals the sum
    /// of service times (no idling with a full queue, no overlap).
    #[test]
    fn serial_server_conserves_work(durs in proptest::collection::vec(1u64..10_000, 1..40)) {
        let mut sim = Sim::new();
        let s = sim.server_create(1);
        let toks = enqueue_all(&mut sim, s, &durs);
        sim.run();
        let total: u64 = durs.iter().sum();
        let last = toks
            .iter()
            .filter_map(|(t, _)| sim.token_fire_time(*t))
            .max()
            .expect("jobs complete");
        prop_assert_eq!(last, Time(total));
    }

    /// A width-k server never runs more than k jobs at once: at any job's
    /// start instant, at most k service windows contain it.
    #[test]
    fn wide_server_respects_capacity(
        durs in proptest::collection::vec(1u64..1000, 1..30),
        width in 1usize..5,
    ) {
        let mut sim = Sim::new();
        let s = sim.server_create(width);
        let toks = enqueue_all(&mut sim, s, &durs);
        sim.run();
        let windows: Vec<(u64, u64)> = toks.into_iter().map(|t| window(&sim, t)).collect();
        for (start, _) in &windows {
            let concurrent = windows
                .iter()
                .filter(|(b_start, b_end)| b_start <= start && start < b_end)
                .count();
            prop_assert!(concurrent <= width, "{concurrent} > width {width}");
        }
    }

    /// Two identical programs complete every job at the same instants
    /// (determinism).
    #[test]
    fn repeated_runs_are_identical(durs in proptest::collection::vec(1u64..5000, 1..25)) {
        let run = |durs: &[u64]| {
            let mut sim = Sim::new();
            let a = sim.server_create(1);
            let b = sim.server_create(2);
            let toks: Vec<_> = durs
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    let srv = if i % 2 == 0 { a } else { b };
                    (sim.server_enqueue(srv, Dur::from_nanos(*d), None), *d)
                })
                .collect();
            sim.run();
            toks.into_iter().map(|t| window(&sim, t)).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(&durs), run(&durs));
    }

    /// Scheduled callbacks execute in non-decreasing time order.
    #[test]
    fn execution_times_are_monotone(delays in proptest::collection::vec(0u64..100_000, 1..50)) {
        let mut sim = Sim::new();
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        for d in &delays {
            let seen = seen.clone();
            sim.schedule(Dur::from_nanos(*d), move |s| seen.lock().expect("seen").push(s.now()));
        }
        sim.run();
        let times = seen.lock().expect("seen");
        for w in times.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        prop_assert_eq!(times.len(), delays.len());
    }
}

mod gated {
    use hs_sim::{Dur, Sim};

    #[test]
    fn gated_jobs_share_domain_capacity() {
        let mut sim = Sim::new();
        // Two serial streams, each claiming 8 cores, on a 12-core domain:
        // their jobs cannot fully overlap.
        let dom = sim.sem_create(12);
        let s1 = sim.server_create(1);
        let s2 = sim.server_create(1);
        let a = sim.server_enqueue(s1, Dur::from_micros(10), Some((dom, 8)));
        let b = sim.server_enqueue(s2, Dur::from_micros(10), Some((dom, 8)));
        sim.run();
        let ta = sim.token_fire_time(a).expect("a completes");
        let tb = sim.token_fire_time(b).expect("b completes");
        // Serialized: the later one ends at 20us, not 10us.
        assert_eq!(ta.max(tb).as_nanos(), 20_000);
    }

    #[test]
    fn gated_jobs_within_capacity_overlap() {
        let mut sim = Sim::new();
        let dom = sim.sem_create(12);
        let s1 = sim.server_create(1);
        let s2 = sim.server_create(1);
        let a = sim.server_enqueue(s1, Dur::from_micros(10), Some((dom, 6)));
        let b = sim.server_enqueue(s2, Dur::from_micros(10), Some((dom, 6)));
        sim.run();
        assert_eq!(sim.token_fire_time(a), sim.token_fire_time(b), "both fit");
    }

    #[test]
    fn waiting_servers_are_woken_fifo() {
        let mut sim = Sim::new();
        let dom = sim.sem_create(4);
        let hog = sim.server_create(1);
        let w1 = sim.server_create(1);
        let w2 = sim.server_create(1);
        let _h = sim.server_enqueue(hog, Dur::from_micros(10), Some((dom, 4)));
        let a = sim.server_enqueue(w1, Dur::from_micros(1), Some((dom, 4)));
        let b = sim.server_enqueue(w2, Dur::from_micros(1), Some((dom, 4)));
        sim.run();
        let ta = sim.token_fire_time(a).expect("a");
        let tb = sim.token_fire_time(b).expect("b");
        assert!(ta < tb, "first parked server is served first");
        assert_eq!(sim.sem_available(dom), 4, "all capacity returned");
    }

    #[test]
    fn mixed_gated_and_ungated_jobs_coexist() {
        let mut sim = Sim::new();
        let dom = sim.sem_create(2);
        let s = sim.server_create(2);
        let g = sim.server_enqueue(s, Dur::from_micros(5), Some((dom, 2)));
        let u = sim.server_enqueue(s, Dur::from_micros(5), None);
        sim.run();
        assert_eq!(
            sim.token_fire_time(g),
            sim.token_fire_time(u),
            "ungated jobs skip the gate"
        );
    }
}

mod fairness {
    use hs_sim::{Dur, Sim};

    #[test]
    fn wide_request_does_not_starve_behind_narrow_stream() {
        let mut sim = Sim::new();
        let dom = sim.sem_create(8);
        let narrow = sim.server_create(1);
        let wide = sim.server_create(1);
        // A continuous stream of 4-unit jobs would always leave <8 free if
        // they could overtake; the parked 8-unit job must still get through.
        for _ in 0..10 {
            sim.server_enqueue(narrow, Dur::from_micros(10), Some((dom, 4)));
        }
        let big = sim.server_enqueue(wide, Dur::from_micros(10), Some((dom, 8)));
        sim.run();
        let t_big = sim.token_fire_time(big).expect("wide job completes");
        // Without fairness the wide job runs last (>= 100us start). With
        // FIFO reservation it runs as soon as the in-flight narrow job
        // drains: start ~10us, done ~20us.
        assert!(
            t_big.as_nanos() <= 30_000,
            "wide job must not starve: finished at {t_big:?}"
        );
        assert_eq!(sim.sem_available(dom), 8);
    }

    #[test]
    fn capacity_is_conserved_under_mixed_load() {
        let mut sim = Sim::new();
        let dom = sim.sem_create(12);
        let servers: Vec<_> = (0..5).map(|_| sim.server_create(1)).collect();
        for round in 0..20 {
            for (i, s) in servers.iter().enumerate() {
                let units = 1 + ((round + i) % 5) as u32 * 3;
                sim.server_enqueue(
                    *s,
                    Dur::from_micros(1 + (i as u64)),
                    Some((dom, units.min(12))),
                );
            }
        }
        sim.run();
        assert_eq!(sim.sem_available(dom), 12, "all units returned");
    }
}
