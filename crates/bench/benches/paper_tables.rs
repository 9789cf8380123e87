//! Timing benches (built with `--features criterion`): one per
//! table/figure of the paper, running a small trial batch per iteration. These measure the cost of regenerating
//! each experiment point and double as smoke tests that the full
//! pipeline stays runnable; the full-scale numbers come from
//! `run <experiment>`.

use h2priv_bench::timing::{BatchSize, Harness};
use h2priv_core::attack::AttackConfig;
use h2priv_core::experiment::run_isidewith_trial;
use h2priv_core::experiments::{run, Baseline, Fig1, Fig5, Section4d, Table1, Table2};
use h2priv_netsim::time::SimDuration;
use std::cell::Cell;

thread_local! {
    static SEED: Cell<u64> = const { Cell::new(0) };
}

fn next_seed() -> u64 {
    SEED.with(|s| {
        let v = s.get();
        s.set(v + 1);
        v
    })
}

fn bench_baseline(c: &mut Harness) {
    c.bench_function("baseline/one_trial_passive", |b| {
        b.iter_batched(
            next_seed,
            |seed| run_isidewith_trial(seed, None),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("baseline/table_3trials", |b| {
        b.iter_batched(
            next_seed,
            |seed| run(&Baseline, 3, seed, 1),
            BatchSize::SmallInput,
        )
    });
}

fn bench_table1(c: &mut Harness) {
    c.bench_function("table1/one_trial_jitter50", |b| {
        b.iter_batched(
            next_seed,
            |seed| {
                run_isidewith_trial(
                    seed,
                    Some(AttackConfig::jitter_only(SimDuration::from_millis(50))),
                )
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("table1/rows_2trials", |b| {
        b.iter_batched(
            next_seed,
            |seed| run(&Table1, 2, seed, 1),
            BatchSize::SmallInput,
        )
    });
}

fn bench_fig5(c: &mut Harness) {
    c.bench_function("fig5/rows_2trials", |b| {
        b.iter_batched(
            next_seed,
            |seed| run(&Fig5, 2, seed, 1),
            BatchSize::SmallInput,
        )
    });
}

fn bench_fig6_drops(c: &mut Harness) {
    c.bench_function("fig6_drops/one_trial_80pct", |b| {
        b.iter_batched(
            next_seed,
            |seed| {
                run_isidewith_trial(
                    seed,
                    Some(AttackConfig::with_drops(0.8, SimDuration::from_secs(6))),
                )
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("fig6_drops/rows_2trials", |b| {
        b.iter_batched(
            next_seed,
            |seed| {
                let drops = Section4d {
                    rates: &[0.8],
                    stop_on_reset: true,
                };
                run(&drops, 2, seed, 1)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_table2(c: &mut Harness) {
    c.bench_function("table2/one_trial_full_attack", |b| {
        b.iter_batched(
            next_seed,
            |seed| run_isidewith_trial(seed, Some(AttackConfig::full_attack())),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("table2/columns_2trials", |b| {
        b.iter_batched(
            next_seed,
            |seed| run(&Table2, 2, seed, 1),
            BatchSize::SmallInput,
        )
    });
}

fn bench_fig1(c: &mut Harness) {
    c.bench_function("fig1/both_cases", |b| {
        b.iter_batched(
            next_seed,
            |seed| run(&Fig1, 1, seed, 1),
            BatchSize::SmallInput,
        )
    });
}

fn main() {
    let mut h = Harness::new().sample_size(10);
    bench_baseline(&mut h);
    bench_table1(&mut h);
    bench_fig5(&mut h);
    bench_fig6_drops(&mut h);
    bench_table2(&mut h);
    bench_fig1(&mut h);
}
