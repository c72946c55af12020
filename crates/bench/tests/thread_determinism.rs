//! The engine's determinism contract, asserted end to end: running a
//! trial-parallel experiment with one worker and with four workers must
//! produce bit-identical run records — same metric bits, same counters,
//! same rendered tables. Only wall time may differ.

use cadapt_bench::harness::{find, run_record_resilient, RunRecord};
use cadapt_bench::{ExpCtx, Scale};

fn record(id: &str, threads: usize) -> RunRecord {
    let exp = find(id).expect("experiment is registered");
    assert!(
        exp.deterministic(),
        "{id} must declare the determinism contract it is tested against"
    );
    let (record, failure) = run_record_resilient(exp, ExpCtx::with_threads(Scale::Quick, threads));
    assert!(failure.is_none(), "{id} failed: {failure:?}");
    record
}

fn assert_bit_identical(id: &str) {
    let serial = record(id, 1);
    let fanned = record(id, 4);
    assert_eq!(serial.counters, fanned.counters, "{id}: counters diverged");
    assert_eq!(serial.tables, fanned.tables, "{id}: tables diverged");
    assert_eq!(
        serial.metrics.len(),
        fanned.metrics.len(),
        "{id}: metric count diverged"
    );
    for (a, b) in serial.metrics.iter().zip(&fanned.metrics) {
        assert_eq!(a.name, b.name, "{id}: metric order diverged");
        assert_eq!(
            a.value.to_bits(),
            b.value.to_bits(),
            "{id}/{}: value diverged ({} vs {})",
            a.name,
            a.value,
            b.value
        );
        assert_eq!(
            a.ci95.to_bits(),
            b.ci95.to_bits(),
            "{id}/{}: ci95 diverged",
            a.name
        );
    }
}

#[test]
fn e3_is_bit_identical_across_thread_counts() {
    assert_bit_identical("e3");
}

#[test]
fn e4_is_bit_identical_across_thread_counts() {
    assert_bit_identical("e4");
}

#[test]
fn e5_is_bit_identical_across_thread_counts() {
    assert_bit_identical("e5");
}

#[test]
fn e10_is_bit_identical_across_thread_counts() {
    assert_bit_identical("e10");
}

#[test]
fn e11_is_bit_identical_across_thread_counts() {
    assert_bit_identical("e11");
}

#[test]
fn e13_is_bit_identical_across_thread_counts() {
    assert_bit_identical("e13");
}
