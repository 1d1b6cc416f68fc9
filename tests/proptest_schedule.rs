//! Property-based scheduling: legality and coverage for arbitrary shapes,
//! on the closure G-graph and on the LU and Faddeev elimination graphs.

use systolic::partition::GsetSchedule;
use systolic::transform::GenericGGraph;
use systolic_util::Checker;

#[test]
fn linear_schedules_legal() {
    Checker::new("linear schedules legal", 64).run(|rng| {
        let n = 2 + rng.gen_usize(26); // 2..=27
        let m = 1 + rng.gen_usize(11); // 1..=11
        let s = GsetSchedule::linear(&GenericGGraph::closure(n), m);
        assert_eq!(s.total_gnodes(), n * (n + 1));
        s.verify_legal().map_err(|e| format!("n={n} m={m}: {e}"))?;
        // No G-set exceeds the array size.
        for e in s.entries() {
            assert!(e.members.len() <= m, "n={n} m={m}");
        }
        Ok(())
    });
}

#[test]
fn grid_schedules_legal() {
    Checker::new("grid schedules legal", 64).run(|rng| {
        let n = 2 + rng.gen_usize(22); // 2..=23
        let s = 1 + rng.gen_usize(5); // 1..=5
        let sched = GsetSchedule::grid(&GenericGGraph::closure(n), s);
        assert_eq!(sched.total_gnodes(), n * (n + 1));
        sched
            .verify_legal()
            .map_err(|e| format!("n={n} s={s}: {e}"))?;
        for e in sched.entries() {
            assert!(e.members.len() <= s * s, "n={n} s={s}");
        }
        Ok(())
    });
}

#[test]
fn elimination_schedules_legal() {
    Checker::new("LU/Faddeev schedules legal", 64).run(|rng| {
        let n = 2 + rng.gen_usize(18); // 2..=19
        let c = 1 + rng.gen_usize(5); // 1..=5
        for (name, gg) in [
            ("lu", GenericGGraph::lu(n)),
            ("faddeev", GenericGGraph::faddeev(n)),
        ] {
            for (mapping, sched) in [
                ("linear", GsetSchedule::linear(&gg, c)),
                ("grid", GsetSchedule::grid(&gg, c)),
            ] {
                assert_eq!(sched.total_gnodes(), gg.gnode_count());
                sched
                    .verify_legal()
                    .map_err(|e| format!("{name} {mapping} n={n} c={c}: {e}"))?;
                for e in sched.entries() {
                    assert!(e.members.len() <= sched.cells, "{name} {mapping}");
                }
            }
        }
        Ok(())
    });
}
