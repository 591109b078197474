//! The sim pool's lifecycle, read from the process's thread count: an
//! engine spawns its `workers` threads at its first sim wave, keeps them
//! between waves, and joins them when it drops. The count is
//! process-wide and the harness runs tests on parallel threads, so this
//! file holds exactly one test.

use mage_core::MageConfig;
use mage_serve::{synthetic_service, JobSpec, ServeEngine, ServeOptions};
use std::time::Duration;

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("a Threads: line");
    line.trim().parse().expect("a thread count")
}

/// The thread count once it reads `want`, polling for up to a second: a
/// joined thread can leave the count shortly after its join returns.
fn settled(want: usize) -> usize {
    for _ in 0..200 {
        if threads() == want {
            return want;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    threads()
}

fn specs() -> Vec<JobSpec> {
    ["prob029_alu4", "prob010_mux2"]
        .iter()
        .enumerate()
        .map(|(ix, id)| {
            let p = mage_problems::by_id(id).expect("corpus problem");
            JobSpec {
                problem_id: p.id.to_string(),
                spec: p.spec.to_string(),
                config: MageConfig::high_temperature(),
                seed: 9100 + ix as u64,
            }
        })
        .collect()
}

#[test]
fn an_engine_holds_its_workers_from_its_first_wave_until_it_drops() {
    let opts = ServeOptions {
        workers: 3,
        ..ServeOptions::default()
    };
    let specs = specs();
    let before = threads();

    let mut idle = ServeEngine::new(opts.clone(), synthetic_service(&specs));
    idle.run();
    assert_eq!(idle.stats().sim_waves, 0);
    assert_eq!(threads(), before, "an engine that launched no wave");
    drop(idle);

    let mut engine = ServeEngine::new(opts, synthetic_service(&specs));
    for spec in &specs {
        engine.push_job(spec.clone());
    }
    assert_eq!(threads(), before, "a loaded engine before its first step");
    engine.run();
    assert!(engine.stats().sim_waves > 1, "the stream ran several waves");
    assert_eq!(
        settled(before + 3),
        before + 3,
        "the engine keeps its three workers after its waves"
    );
    drop(engine);
    assert_eq!(settled(before), before, "the drop joined every worker");
}
