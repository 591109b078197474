//! Fleet determinism: a sharded run must retire every job with a
//! `SolveTrace` bit-identical to the one `Mage::solve` gives for that
//! job alone — whatever the shard count, schedule (batched or scalar
//! dispatch), worker count, or fault plan — and a run replayed under
//! its own recorded `PlacementTrace` must re-record that trace exactly.
//!
//! Like the serve suites, the service plan comes from `MAGE_FAULT_PLAN`
//! (via `FleetEngine::synthetic`), so CI re-runs this whole file under
//! the canonical chaos plan; the explicit-plan tests pin canonical
//! regardless of the environment. Every canonical fault is absorbable,
//! so the solo solves stay the reference either way.

use mage_core::{Mage, MageConfig, SolveTrace, Task};
use mage_fleet::{FleetEngine, FleetOptions};
use mage_llm::{DispatchPolicy, FaultPlan, SyntheticModel, SyntheticModelConfig};
use mage_serve::{JobSpec, ServeOptions, ServeStats};

const PROBLEMS: [&str; 4] = [
    "prob012_mux4_case",
    "prob029_alu4",
    "prob044_pipeline2",
    "prob010_mux2",
];

fn specs(runs: usize) -> Vec<JobSpec> {
    let mut out = Vec::new();
    for run in 0..runs {
        for (pix, id) in PROBLEMS.iter().enumerate() {
            let p = mage_problems::by_id(id).expect("corpus problem");
            out.push(JobSpec {
                problem_id: p.id.to_string(),
                spec: p.spec.to_string(),
                config: MageConfig::high_temperature(),
                seed: 1000 + (run * PROBLEMS.len() + pix) as u64,
            });
        }
    }
    out
}

/// A stream of one problem only: affinity routes every job to the same
/// home shard, so (with a wide spread) rebalancing must kick in.
fn skewed_specs(n: usize) -> Vec<JobSpec> {
    let p = mage_problems::by_id("prob029_alu4").expect("corpus problem");
    (0..n)
        .map(|ix| JobSpec {
            problem_id: p.id.to_string(),
            spec: p.spec.to_string(),
            config: MageConfig::high_temperature(),
            seed: 7000 + ix as u64,
        })
        .collect()
}

/// The two schedules every grid sweeps: one coalesced LLM batch per
/// dispatch point, and scalar dispatch (one call per request).
const SCHEDULES: [(&str, bool); 2] = [("batched", true), ("scalar", false)];

fn serve_opts(batch_llm: bool, workers: usize) -> ServeOptions {
    ServeOptions {
        workers,
        batch_llm,
        max_in_flight: 0,
        ..ServeOptions::default()
    }
}

/// A run really had its schedule: batching coalesced requests into
/// fewer calls, scalar dispatch made one call per request.
fn assert_schedule(batch_llm: bool, stats: &ServeStats) {
    let coalesced = stats.llm_batch_calls < stats.llm_requests;
    assert_eq!(coalesced, batch_llm, "schedule did not apply: {stats:?}");
}

/// The reference: each job solved alone by `Mage::solve`, in job
/// (= push) order.
fn solo(stream: &[JobSpec]) -> Vec<SolveTrace> {
    stream
        .iter()
        .map(|spec| {
            let p = mage_problems::by_id(&spec.problem_id).expect("corpus problem");
            let mut model = SyntheticModel::new(SyntheticModelConfig::default(), spec.seed);
            model.register(p.id, p.oracle(spec.seed));
            Mage::new(&mut model, spec.config.clone()).solve(&Task {
                id: p.id,
                spec: p.spec,
            })
        })
        .collect()
}

/// Push a stream through a fleet and return its traces in fleet-job
/// order, asserting every job retired exactly once.
fn fleet_traces(report: &mage_fleet::FleetReport, n: usize) -> Vec<SolveTrace> {
    assert_eq!(report.done, n, "all jobs retire");
    assert_eq!(report.traces.len(), n, "one trace per job");
    for (ix, (id, _)) in report.traces.iter().enumerate() {
        assert_eq!(*id, ix, "trace ids are dense fleet ids");
    }
    report.traces.iter().map(|(_, t)| t.clone()).collect()
}

fn run_fleet(stream: &[JobSpec], opts: FleetOptions) -> mage_fleet::FleetReport {
    let mut fleet = FleetEngine::synthetic(opts);
    for spec in stream {
        fleet.push_job(spec.clone());
    }
    fleet.run()
}

#[test]
fn fleet_matches_single_engine_across_shard_counts_and_modes() {
    let stream = specs(3);
    let reference = solo(&stream);
    for (sched, batch) in SCHEDULES {
        for shards in [1usize, 2, 4] {
            let report = run_fleet(
                &stream,
                FleetOptions {
                    shards,
                    serve: serve_opts(batch, 2),
                    migrate_after_steps: 4,
                    ..FleetOptions::default()
                },
            );
            assert_schedule(batch, &report.stats);
            let got = fleet_traces(&report, stream.len());
            assert_eq!(got, reference, "diverged at {shards} shards / {sched}");
            assert_eq!(report.placements, stream.len());
        }
    }
}

#[test]
fn fleet_determinism_holds_under_the_canonical_fault_plan() {
    let stream = specs(2);
    let plan = FaultPlan::parse("canonical").expect("canonical preset");
    let policy = DispatchPolicy::default();
    let reference = solo(&stream);

    for (sched, batch) in SCHEDULES {
        for shards in [2usize, 4] {
            let mut fleet = FleetEngine::synthetic_with(
                FleetOptions {
                    shards,
                    serve: serve_opts(batch, 2),
                    migrate_after_steps: 3,
                    ..FleetOptions::default()
                },
                plan.clone(),
                policy.clone(),
            );
            for spec in &stream {
                fleet.push_job(spec.clone());
            }
            let report = fleet.run();
            assert_schedule(batch, &report.stats);
            let got = fleet_traces(&report, stream.len());
            assert_eq!(
                got, reference,
                "canonical plan diverged at {shards} shards / {sched}"
            );
            // The fault plan actually fired, and the shards' health
            // observations survived aggregation (merge, not clobber).
            assert!(report.stats.retries > 0, "canonical plan injected nothing");
            let health = report.health.as_ref().expect("faulty service health");
            assert!(
                health.backends.iter().map(|b| b.calls).sum::<u64>() > 0,
                "merged health lost every observation"
            );
        }
    }
}

#[test]
fn skewed_stream_rebalances_and_replays_bit_identically() {
    let stream = skewed_specs(10);
    let record_opts = FleetOptions {
        shards: 3,
        serve: serve_opts(true, 2),
        migrate_after_steps: 2,
        // A wide spread defeats placement-time spilling, so the whole
        // skewed stream lands on its affinity shard and only the
        // rebalancer can spread it.
        spread: 64,
        ..FleetOptions::default()
    };
    let recorded = run_fleet(&stream, record_opts.clone());
    assert!(
        recorded.migrations > 0,
        "skewed stream produced no migrations to replay"
    );
    let home = recorded.trace.shard_of(0).unwrap();
    for job in 0..stream.len() {
        assert_eq!(
            recorded.trace.shard_of(job),
            Some(home),
            "wide spread must keep the skewed stream on its home shard"
        );
    }

    let replayed = run_fleet(
        &stream,
        FleetOptions {
            pinned: Some(recorded.trace.clone()),
            ..record_opts
        },
    );
    assert_eq!(
        replayed.trace, recorded.trace,
        "replay re-recorded a different placement trace"
    );
    assert_eq!(
        fleet_traces(&replayed, stream.len()),
        fleet_traces(&recorded, stream.len()),
        "replay changed a solve trace"
    );

    // And the whole migrating run still matches the solo solves.
    assert_eq!(fleet_traces(&recorded, stream.len()), solo(&stream));
}

#[test]
fn mid_stream_migration_is_invisible_in_every_mode_and_worker_count() {
    // The schedules sweep batching, never the cap: migration moves a
    // checkpoint, and a queued job has none.
    let stream = specs(2);
    let reference = solo(&stream);
    for (sched, batch) in SCHEDULES {
        for workers in [1usize, 2, 8] {
            let mut fleet = FleetEngine::synthetic(FleetOptions {
                shards: 2,
                serve: serve_opts(batch, workers),
                ..FleetOptions::default()
            });
            for spec in &stream {
                fleet.push_job(spec.clone());
            }
            // A couple of waves in, lift job 0 off its shard and
            // restore it on the other one, mid-flight.
            for _ in 0..3 {
                fleet.run_round();
            }
            let from = fleet.trace().shard_of(0).expect("job 0 placed");
            assert!(
                fleet.migrate(0, 1 - from),
                "job 0 should still be running after three rounds"
            );
            let report = fleet.run();
            assert!(report.migrations >= 1);
            assert_schedule(batch, &report.stats);
            let got = fleet_traces(&report, stream.len());
            assert_eq!(
                got, reference,
                "migration changed a trace at {sched}/{workers} workers"
            );
        }
    }
}

#[test]
fn drain_and_restart_preserve_every_trace() {
    let stream = specs(3);
    let reference = solo(&stream);
    let mut fleet = FleetEngine::synthetic(FleetOptions {
        shards: 3,
        serve: serve_opts(true, 2),
        ..FleetOptions::default()
    });
    for spec in &stream {
        fleet.push_job(spec.clone());
    }
    for _ in 0..2 {
        fleet.run_round();
    }
    let moved = fleet.restart_shard(0);
    assert!(moved > 0, "shard 0 should have held work to move");
    for _ in 0..2 {
        fleet.run_round();
    }
    fleet.restart_shard(1);
    let report = fleet.run();
    assert_eq!(report.restarts, 2);
    assert!(report.migrations >= moved);
    let got = fleet_traces(&report, stream.len());
    assert_eq!(got, reference, "drain/restart changed a trace");
}

#[test]
fn affinity_keeps_a_problem_on_one_shard_and_spill_balances_load() {
    // Pure affinity (wide spread): every run of a problem lands on the
    // same shard.
    let stream = specs(4);
    let report = run_fleet(
        &stream,
        FleetOptions {
            shards: 4,
            serve: serve_opts(true, 2),
            spread: 64,
            ..FleetOptions::default()
        },
    );
    for id in PROBLEMS {
        let shards: Vec<usize> = stream
            .iter()
            .enumerate()
            .filter(|(_, s)| s.problem_id == id)
            .map(|(job, _)| report.trace.shard_of(job).expect("placed"))
            .collect();
        assert!(
            shards.windows(2).all(|w| w[0] == w[1]),
            "{id}: affinity split a problem across shards: {shards:?}"
        );
    }

    // Zero spread: a single-problem burst must spill off its home
    // shard instead of queueing there.
    let skew = skewed_specs(6);
    let spilled = run_fleet(
        &skew,
        FleetOptions {
            shards: 2,
            serve: serve_opts(true, 1),
            spread: 0,
            ..FleetOptions::default()
        },
    );
    for shard in 0..2usize {
        let landed = (0..skew.len())
            .filter(|&j| spilled.trace.shard_of(j) == Some(shard))
            .count();
        assert!(
            landed >= 2,
            "zero spread should balance the burst, shard {shard} got {landed}/6"
        );
    }
    assert_eq!(fleet_traces(&spilled, skew.len()).len(), skew.len());
}

#[test]
fn cache_fabric_shares_work_across_shards() {
    // Four copies of the same problem forced onto four different
    // shards: their identical candidate designs can only be shared
    // through the global tier.
    let stream = skewed_specs(8);
    let report = run_fleet(
        &stream,
        FleetOptions {
            shards: 4,
            serve: serve_opts(true, 1),
            spread: 0,
            ..FleetOptions::default()
        },
    );
    assert_eq!(report.done, stream.len());
    let f = &report.fabric;
    assert!(
        f.design_local.hits + f.design_local.misses > 0,
        "no design-cache traffic at all"
    );
    assert!(
        f.design_global.hits + f.design_global.misses > 0,
        "local tiers never consulted the global tier"
    );
    assert!(
        f.design_local.promotions <= f.design_local.misses,
        "promotions can only happen on local misses"
    );
    assert!(
        f.score_local.promotions <= f.score_local.misses,
        "score promotions can only happen on local misses"
    );
    // Every whole-design miss delta-compiles through the unit tier, so
    // cold caches must generate per-process unit traffic too.
    assert!(
        f.unit_local.hits + f.unit_local.misses > 0,
        "no unit-tier traffic at all"
    );
    assert!(
        f.unit_global.hits + f.unit_global.misses > 0,
        "local unit tiers never consulted the global tier"
    );
    assert!(
        f.unit_local.promotions <= f.unit_local.misses,
        "unit promotions can only happen on local misses"
    );
}
