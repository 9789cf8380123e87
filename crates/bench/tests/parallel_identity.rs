//! Regression: the parallel trial executor must be invisible in the
//! results. Running an experiment at `jobs = 4` has to produce the same
//! report **bytes** as the sequential `jobs = 1` path — the one driver
//! folds every batch in submission order, so floating-point sums,
//! percentages, and serialized reports cannot depend on worker
//! scheduling.

use h2priv_core::experiments::{run, Experiment, RobustnessSweep, Table1};

fn assert_job_count_invisible<E: Experiment>(exp: &E, trials: usize, base_seed: u64) {
    let seq = exp.report(&run(exp, trials, base_seed, 1));
    let par = exp.report(&run(exp, trials, base_seed, 4));
    assert_eq!(seq, par);
}

#[test]
fn table1_is_byte_identical_across_job_counts() {
    assert_job_count_invisible(&Table1, 3, 42);
}

#[test]
fn robustness_sweep_with_retries_is_byte_identical_across_job_counts() {
    // Exercises the watchdog + retry path (run_isidewith_trial_retrying)
    // under the pool: intensity 1.0 trials hit faults and may retry.
    let sweep = RobustnessSweep {
        intensities: &[0.0, 1.0],
    };
    assert_job_count_invisible(&sweep, 2, 81_000);
}
