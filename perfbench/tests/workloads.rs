//! Every workload at `Size::Tiny`: the ledger gate passes on an honest run
//! and trips on a tampered one, the traced composition reproduces the
//! untraced system, and a seed fixes the inputs and the deterministic
//! counters.

use gcsm_perfbench::ledger::Tamper;
use gcsm_perfbench::{run, Outcome, RunConfig, Size, WORKLOADS};

fn tiny(workload: &str, seed: u64, trace: bool, tamper: bool) -> Outcome {
    let rc = RunConfig { seed, seconds: 0.5, trace, tamper: Tamper(tamper) };
    run(workload, &rc, Size::Tiny).expect("known workload")
}

#[test]
fn honest_runs_pass_the_gate_with_nothing_failed() {
    for w in WORKLOADS {
        let out = tiny(w, 7, false, false);
        assert!(out.correct(), "{w}: {:?}", out.errors);
        assert!(out.attempted > 0, "{w}: nothing offered");
        assert_eq!(out.failed_frac(), 0.0, "{w}");
        assert!(out.result_json().starts_with("{\"correct\": true,"), "{w}");
    }
}

#[test]
fn tampered_delta_trips_the_ledger_gate() {
    for w in WORKLOADS {
        let out = tiny(w, 7, false, true);
        assert!(!out.correct(), "{w}: tampered ΔM passed the gate");
        assert!(out.errors.iter().any(|e| e.contains("ledger mismatch")), "{w}: {:?}", out.errors);
        assert_eq!(out.failed_frac(), 1.0, "{w}");
        assert!(out.result_json().starts_with("{\"correct\": false,"), "{w}");
    }
}

#[test]
fn traced_run_reproduces_the_untraced_system() {
    for w in WORKLOADS {
        let out = tiny(w, 7, true, false);
        assert!(out.correct(), "{w}: {:?}", out.errors);
        assert!(out.spans.as_ref().is_some_and(|t| !t.spans().is_empty()), "{w}: no spans");
        assert!(out.metric("matcher.intersect_ops").is_some_and(|v| v > 0.0), "{w}");
    }
}

#[test]
fn seed_fixes_inputs_and_counters() {
    for w in WORKLOADS {
        let a = tiny(w, 3, false, false);
        let b = tiny(w, 3, false, false);
        let c = tiny(w, 4, false, false);
        assert_eq!(a.digest, b.digest, "{w}: same seed, different inputs");
        assert_eq!(a.counters, b.counters, "{w}: same seed, different counters");
        assert!(a.counters.batches > 0 && a.counters.intersect_ops > 0, "{w}: {:?}", a.counters);
        assert_ne!(a.digest, c.digest, "{w}: different seeds, same inputs");
    }
}
