//! Static partition-safety verification over the workload suite, plus
//! intentionally broken fixtures exercising the checker's negative paths:
//! a cross-partition race and a static out-of-bounds write, each reported
//! with a concrete witness point.

use mekong_analysis::AppModel;
use mekong_check::{check_app, codes, AxisMask, Severity};
use mekong_core::prelude::*;
use mekong_gpusim::ThreadProfile;
use mekong_tuner::enumerate_strategies;
use mekong_workloads::{benchmarks, extra_benchmarks};

/// Every kernel in every shipped workload must carry a write-disjointness
/// proof along its suggested split axis, with zero error-severity
/// diagnostics — this is the harness-level gate the issue asks for.
#[test]
fn workload_kernels_prove_disjointness_along_suggested_axes() {
    for b in benchmarks().iter().chain(extra_benchmarks().iter()) {
        let prog = compile_source(b.source()).unwrap_or_else(|e| panic!("{}: {e:?}", b.name()));
        let report = check_app(&prog.model).unwrap();
        assert!(!report.kernels.is_empty(), "{}: no kernels", b.name());
        for kc in &report.kernels {
            assert!(
                kc.proven_axes[kc.suggested.zyx_index()],
                "{}::{}: suggested axis {} not proven disjoint: {:?}",
                b.name(),
                kc.kernel,
                kc.suggested,
                kc.diagnostics
            );
            let errors: Vec<_> = kc
                .diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .collect();
            assert!(
                errors.is_empty(),
                "{}::{}: unexpected errors: {errors:?}",
                b.name(),
                kc.kernel
            );
        }
    }
}

/// The exported JSON reconstructs every workload's model exactly: what
/// `mekong-check` reads is what the compiler's second pass consumed.
#[test]
fn exported_models_round_trip_exactly() {
    for b in benchmarks().iter().chain(extra_benchmarks().iter()) {
        let prog = compile_source(b.source()).unwrap();
        let read_back = AppModel::from_json(&prog.model_json).unwrap();
        assert_eq!(read_back, prog.model, "{}", b.name());
        assert_eq!(
            AppModel::from_json(&read_back.to_json()).unwrap(),
            read_back
        );
        for (ck, km) in prog.kernels.iter().zip(&prog.model.kernels) {
            assert_eq!(&ck.model, km, "{}::{}", b.name(), km.kernel_name);
        }
    }
}

/// A kernel whose guard admits two threads writing the same element
/// across a block boundary: thread `i` writes `out[i]` and `out[i+1]`,
/// so the last thread of block `b` collides with the first thread of
/// block `b+1`.
const RACY_SRC: &str = r#"
__global__ void smear(int n, float out[n]) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n - 1) return;
    out[i] = 1.0f;
    out[i + 1] = 2.0f;
}

int main() {
    smear<<<grid, block>>>(n, out);
    return 0;
}
"#;

#[test]
fn racy_fixture_reports_cross_partition_race_with_witness() {
    let prog = compile_source(RACY_SRC).unwrap();
    let report = check_app(&prog.model).unwrap();
    let kc = &report.kernels[0];
    assert_eq!(kc.kernel, "smear");
    assert!(
        !kc.proven_axes[kc.suggested.zyx_index()],
        "racy kernel must not be proven on its suggested axis"
    );
    let race = kc
        .diagnostics
        .iter()
        .find(|d| d.code == codes::CROSS_PARTITION_RACE && d.severity == Severity::Error)
        .expect("expected an error-severity cross-partition-race diagnostic");
    let w = race
        .witness
        .as_ref()
        .expect("race diagnostic must carry a concrete witness");
    let block_b = w.block_b.expect("race witness names two blocks");
    assert_ne!(w.block_a, block_b, "witness blocks must be distinct");
    assert_eq!(w.element.len(), 1, "smear writes a 1-D array");

    // The compiled artifact exposes the rejection to the runtime and
    // tuner: no axis is safe, and the masked enumeration degenerates to
    // the single-device fallback.
    let ck = prog.kernel("smear").expect("compiled kernel");
    assert_eq!(ck.safe_axes, AxisMask::none());
    let spec = MachineSpec::kepler_system(4);
    let cands = enumerate_strategies(
        &spec,
        Dim3::new1(64),
        ThreadProfile::default(),
        ck.safe_axes,
    );
    assert!(
        cands.iter().all(|s| s.n_parts() <= 1),
        "tuner must not enumerate multi-device strategies for a racy kernel: {cands:?}"
    );
}

/// Off-by-one guard: `if (i > n) return;` lets `i == n` through, so the
/// write image of `out[i]` escapes the declared extent `out[n]` by one
/// element.
const OOB_SRC: &str = r#"
__global__ void overshoot(int n, float out[n], float unused[n]) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i > n) return;
    out[i] = 1.0f;
}

int main() {
    overshoot<<<grid, block>>>(n, out, unused);
    return 0;
}
"#;

#[test]
fn oob_fixture_reports_write_out_of_bounds_with_witness() {
    let prog = compile_source(OOB_SRC).unwrap();
    let report = check_app(&prog.model).unwrap();
    let kc = &report.kernels[0];
    assert_eq!(kc.kernel, "overshoot");
    let oob = kc
        .diagnostics
        .iter()
        .find(|d| d.code == codes::WRITE_OOB && d.severity == Severity::Error)
        .expect("expected an error-severity write-out-of-bounds diagnostic");
    assert_eq!(oob.array.as_deref(), Some("out"));
    let w = oob
        .witness
        .as_ref()
        .expect("OOB diagnostic must carry a concrete witness");
    // The witness element sits exactly at the extent: out[n] with i == n.
    let n = w
        .params
        .iter()
        .find(|(name, _)| name == "n")
        .map(|&(_, v)| v)
        .expect("witness binds the extent parameter");
    assert_eq!(w.element, vec![n], "off-by-one witness must be out[n]");

    // The dead array argument is flagged too (warning severity).
    assert!(
        kc.diagnostics
            .iter()
            .any(|d| d.code == codes::DEAD_ARRAY && d.array.as_deref() == Some("unused")),
        "expected a dead-array-arg warning for `unused`: {:?}",
        kc.diagnostics
    );
}
