//! The round-based Monte-Carlo engine: a yield curve runs every σ at
//! once, and must equal the per-σ runs it replaces — tally for tally,
//! outcome for outcome, checkpoint byte for checkpoint byte — at any
//! thread count, batch width, injection or resume point.

use std::path::{Path, PathBuf};

use serde::Deserialize;
use sfq_faults::{
    estimate_yield, run_outcomes, yield_curve, Cell, FaultError, Injection, McOptions, Outcome,
};

/// Serialize access to the global thread pool, batch width and panic
/// hook across the tests below.
static GLOBAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

const SIGMAS: [f64; 3] = [0.02, 0.1, 0.35];

fn quiet_hook<T>(f: impl FnOnce() -> T) -> T {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(hook);
    out
}

fn injected(samples: u32) -> McOptions {
    let mut opts = McOptions::new(samples);
    opts.injection = Injection {
        panic_at: vec![3],
        non_convergent_at: vec![7],
    };
    opts
}

/// The per-σ checkpoint file `yield_curve` derives from `base`.
fn sigma_path(base: &Path, sigma: f64) -> PathBuf {
    let mut name = base.as_os_str().to_owned();
    name.push(format!(".s{:016x}", sigma.to_bits()));
    PathBuf::from(name)
}

/// The persisted checkpoint shape (only the fields read here).
#[derive(Deserialize)]
struct Persisted {
    outcomes: Vec<Outcome>,
}

fn persisted_outcomes(path: &Path) -> Vec<Outcome> {
    let text = std::fs::read_to_string(path).expect("read checkpoint");
    serde_json::from_str::<Persisted>(&text)
        .expect("parse checkpoint")
        .outcomes
}

/// The checkpoint an interrupted curve leaves for `sigma`: `outcomes`
/// as the prefix of a `(cell, sigma, seed, samples)` run.
fn write_prefix(
    base: &Path,
    cell: Cell,
    sigma: f64,
    seed: u64,
    samples: u32,
    outcomes: &[Outcome],
) {
    let prefix = serde_json::to_string(&outcomes.to_vec()).expect("serialize prefix");
    let text = format!(
        "{{\"cell\": \"{}\", \"sigma_bits\": {}, \"seed\": {seed}, \"samples\": {samples}, \
         \"outcomes\": {prefix}}}",
        cell.name(),
        sigma.to_bits(),
    );
    std::fs::write(sigma_path(base, sigma), text).expect("write checkpoint");
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn curve_equals_per_sigma_estimates_at_any_threads_and_width() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let opts = injected(12);
    for threads in [1, 4] {
        for width in [Some(1), None] {
            sfq_par::set_threads(threads);
            jjsim::set_batch_width(width);
            for cell in Cell::all() {
                let (curve, looped) = quiet_hook(|| {
                    let curve = yield_curve(cell, &SIGMAS, 5, &opts).expect("curve ok");
                    let looped: Vec<_> = SIGMAS
                        .iter()
                        .map(|&s| estimate_yield(cell, s, 5, &opts).expect("estimate ok"))
                        .collect();
                    (curve, looped)
                });
                assert_eq!(
                    curve,
                    looped,
                    "{} at {threads} threads, width {width:?}",
                    cell.name()
                );
                for p in &curve {
                    assert_eq!((p.panicked, p.non_convergent), (1, 1), "{p:?}");
                }
            }
        }
    }
    jjsim::set_batch_width(None);
    sfq_par::clear_threads();
}

#[test]
fn checkpointed_curve_writes_the_files_per_sigma_runs_write() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = fresh_dir("sfq_faults_curve_bytes");
    let (cell, seed) = (Cell::Dff, 21u64);
    let mut opts = injected(11);
    // Not a multiple of the lane width: chunks cut lane groups short.
    opts.checkpoint_every = 5;
    opts.checkpoint_path = Some(dir.join("curve.json"));
    let curve = quiet_hook(|| yield_curve(cell, &SIGMAS, seed, &opts)).expect("curve ok");

    let mut single = opts.clone();
    for (&sigma, point) in SIGMAS.iter().zip(&curve) {
        let curve_file = sigma_path(&dir.join("curve.json"), sigma);
        let single_file = dir.join(format!("single.{sigma}.json"));
        single.checkpoint_path = Some(single_file.clone());
        let outcomes =
            quiet_hook(|| run_outcomes(cell, sigma, seed, &single)).expect("single run ok");
        assert_eq!(
            std::fs::read(&curve_file).expect("curve checkpoint"),
            std::fs::read(&single_file).expect("single checkpoint"),
            "σ={sigma}: checkpoint bytes differ"
        );
        assert_eq!(persisted_outcomes(&curve_file), outcomes, "σ={sigma}");
        assert_eq!(usize::try_from(point.samples).ok(), Some(outcomes.len()));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn uneven_resume_across_sigmas_is_bit_identical() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = fresh_dir("sfq_faults_curve_resume");
    let base = dir.join("and.json");
    let (cell, seed, samples) = (Cell::ClockedAnd, 33u64, 14u32);
    let opts = injected(samples);
    let (reference, uninterrupted) = quiet_hook(|| {
        let reference: Vec<Vec<Outcome>> = SIGMAS
            .iter()
            .map(|&s| run_outcomes(cell, s, seed, &opts).expect("reference ok"))
            .collect();
        (
            reference,
            yield_curve(cell, &SIGMAS, seed, &opts).expect("curve ok"),
        )
    });

    // An interrupted curve: the first σ finished, the second stopped
    // half-way (mid lane group), the third never started.
    let interrupt = || {
        write_prefix(&base, cell, SIGMAS[0], seed, samples, &reference[0]);
        write_prefix(&base, cell, SIGMAS[1], seed, samples, &reference[1][..7]);
        let _ = std::fs::remove_file(sigma_path(&base, SIGMAS[2]));
    };

    for threads in [1, 4] {
        sfq_par::set_threads(threads);
        interrupt();
        let mut resume = opts.clone();
        resume.checkpoint_every = 4;
        resume.checkpoint_path = Some(base.clone());
        resume.resume = true;
        let resumed = quiet_hook(|| yield_curve(cell, &SIGMAS, seed, &resume)).expect("resume ok");
        assert_eq!(resumed, uninterrupted, "{threads} threads");
        for (&sigma, expect) in SIGMAS.iter().zip(&reference) {
            let path = sigma_path(&base, sigma);
            assert_eq!(&persisted_outcomes(&path), expect, "σ={sigma}");
            // Each σ resumed through `run_outcomes` from its own file
            // (now complete) is the reference too.
            let mut one = resume.clone();
            one.checkpoint_path = Some(path);
            let again = quiet_hook(|| run_outcomes(cell, sigma, seed, &one)).expect("resume ok");
            assert_eq!(&again, expect, "σ={sigma}");
        }
    }
    sfq_par::clear_threads();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_checkpoint_on_last_sigma_fails_before_any_work() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = fresh_dir("sfq_faults_curve_foreign");
    let base = dir.join("jtl.json");
    let (cell, seed) = (Cell::Jtl, 8u64);
    let last = SIGMAS[SIGMAS.len() - 1];
    // Written by a run with another seed.
    write_prefix(&base, cell, last, seed + 1, 6, &[Outcome::Pass]);

    let mut opts = McOptions::new(6);
    opts.checkpoint_every = 2;
    opts.checkpoint_path = Some(base.clone());
    opts.resume = true;
    let err = yield_curve(cell, &SIGMAS, seed, &opts).unwrap_err();
    assert!(
        matches!(&err, FaultError::Checkpoint { path, .. } if *path == sigma_path(&base, last)),
        "{err}"
    );
    // Checked before any σ ran: no earlier σ wrote a checkpoint.
    for &sigma in &SIGMAS[..SIGMAS.len() - 1] {
        assert!(!sigma_path(&base, sigma).exists(), "σ={sigma} ran");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
