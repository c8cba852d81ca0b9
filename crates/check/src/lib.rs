//! `mekong-check` — static partition-safety verification over the
//! application model.
//!
//! The partitioning transform (§7) is only sound when invariants the
//! rest of the pipeline *assumes* actually hold: per-partition write
//! images must be pairwise disjoint along the split axis, write maps
//! must be exact `must` accesses, access images must stay inside the
//! declared array extents, and the compiled enumerators must cover
//! every element a partition touches. This crate proves those
//! invariants — or produces severity-ranked [`Diagnostic`]s with
//! concrete [`Witness`] points where they fail.
//!
//! Three consumers act on the verdicts:
//!
//! * the **tuner** intersects its candidate split axes with
//!   [`safe_axes`] and never enumerates a strategy along a rejected
//!   axis,
//! * the **runtime** refuses (or warns about, per `RuntimeConfig`)
//!   launches whose effective split axis carries no disjointness
//!   proof,
//! * **CI** runs the `mekong-check` binary over the workload models
//!   and fails the build on any [`Severity::Error`] diagnostic.

pub mod diag;
pub mod lint;
pub mod race;

pub use diag::{
    codes, AxisMask, CheckReport, Diagnostic, KernelCheck, Severity, Witness, SCHEMA_VERSION,
};
pub use lint::{coverage_gap, may_read_box, oob_finding, CoverageGap, MayReadBox, OobFinding};
pub use race::{check_axis, find_race_witness, AxisProof};

use mekong_analysis::{
    is_block_injective, AnalysisError, AnalysisSpace, AppModel, ArgModel, KernelModel, SplitAxis,
    Verdict,
};
use mekong_poly::PolyError;

/// Errors produced by the checker.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckError {
    /// The underlying polyhedral library failed.
    Poly(PolyError),
    /// The §4 analysis machinery failed.
    Analysis(AnalysisError),
}

impl From<PolyError> for CheckError {
    fn from(e: PolyError) -> Self {
        CheckError::Poly(e)
    }
}

impl From<AnalysisError> for CheckError {
    fn from(e: AnalysisError) -> Self {
        CheckError::Analysis(e)
    }
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Poly(e) => write!(f, "polyhedral error: {e}"),
            CheckError::Analysis(e) => write!(f, "analysis error: {e}"),
        }
    }
}

impl std::error::Error for CheckError {}

/// Result alias.
pub type Result<T> = std::result::Result<T, CheckError>;

const AXES: [SplitAxis; 3] = [SplitAxis::Z, SplitAxis::Y, SplitAxis::X];

/// The split axes along which partitioning `model` is statically proven
/// write-disjoint.
///
/// This is the cheap entry point consumed by the runtime on every
/// kernel compile: exactness/`may` gates plus the symbolic
/// injectivity proof per axis, with no witness search. A kernel whose
/// verdict is not [`Verdict::Partitionable`] gets [`AxisMask::none`].
/// It agrees with the `proven_axes` of [`check_kernel`] by
/// construction.
pub fn safe_axes(model: &KernelModel) -> Result<AxisMask> {
    if !model.verdict.is_partitionable() {
        return Ok(AxisMask::none());
    }
    let space = AnalysisSpace {
        scalar_names: model.scalar_params.clone(),
    };
    let mut mask = [true; 3];
    for arg in &model.args {
        let ArgModel::Array {
            write: Some(acc), ..
        } = arg
        else {
            continue;
        };
        if !acc.exact || !acc.map.is_exact() || acc.may {
            return Ok(AxisMask::none());
        }
        for axis in AXES {
            if mask[axis.zyx_index()] && !is_block_injective(&acc.map, &space, axis)? {
                mask[axis.zyx_index()] = false;
            }
        }
    }
    Ok(AxisMask { zyx: mask })
}

/// Run every check over one kernel model.
pub fn check_kernel(model: &KernelModel) -> Result<KernelCheck> {
    let space = AnalysisSpace {
        scalar_names: model.scalar_params.clone(),
    };
    let suggested = model.partitioning;
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut proven = [true; 3];
    let kernel = model.kernel_name.clone();

    let diag = |severity, code: &str, array: Option<&String>, axis, message, witness| Diagnostic {
        severity,
        code: code.to_string(),
        kernel: kernel.clone(),
        array: array.cloned(),
        axis,
        message,
        witness,
    };

    if let Verdict::Unmodeled { array } = &model.verdict {
        diags.push(diag(
            Severity::Warning,
            codes::UNMODELED,
            Some(array),
            None,
            "access could not be modeled; kernel falls back to single-device execution".into(),
            None,
        ));
    }

    for arg in &model.args {
        let ArgModel::Array {
            name,
            extents,
            read,
            write,
            ..
        } = arg
        else {
            continue;
        };
        if read.is_none() && write.is_none() {
            diags.push(diag(
                Severity::Warning,
                codes::DEAD_ARRAY,
                Some(name),
                None,
                "array argument is neither read nor written".into(),
                None,
            ));
            continue;
        }

        if let Some(acc) = read {
            if acc.interval {
                // The abstract interpreter bounded a non-affine read with
                // an interval box: sound, but the runtime fetches the whole
                // box. Report its concrete shape at a sample binding so the
                // over-fetch is visible before anything runs.
                let message = match lint::may_read_box(&acc.map, extents, &space)? {
                    Some(b) => {
                        let dims: Vec<String> = b
                            .bounds
                            .iter()
                            .map(|(lo, hi)| format!("[{lo}, {hi}]"))
                            .collect();
                        let ps: Vec<String> =
                            b.params.iter().map(|(n, v)| format!("{n}={v}")).collect();
                        format!(
                            "read footprint is a bounded interval box (sound \
                             over-approximation); with {}: box {} holds {} element(s), \
                             {} touched (tightness {:.2})",
                            ps.join(", "),
                            dims.join("×"),
                            b.volume,
                            b.touched,
                            b.tightness()
                        )
                    }
                    None => "read footprint is a bounded interval box (sound \
                             over-approximation); empty at the sample binding"
                        .into(),
                };
                diags.push(diag(
                    Severity::Info,
                    codes::BOUNDED_MAY_READ,
                    Some(name),
                    None,
                    message,
                    None,
                ));
            }
            // Reads may legally over-approximate and the enumerators clip
            // them to the extents, so an escaping read image is only
            // suspicious, not unsound.
            if let Some(f) = lint::oob_finding(&acc.map, extents, &space)? {
                diags.push(diag(
                    Severity::Warning,
                    codes::READ_OOB,
                    Some(name),
                    None,
                    oob_message("read", &f),
                    f.witness,
                ));
            }
            if let Some(g) =
                lint::coverage_gap(&acc.map, extents, &space, suggested, &model.scalar_params)?
            {
                diags.push(diag(
                    Severity::Error,
                    codes::COVERAGE_GAP,
                    Some(name),
                    Some(suggested),
                    coverage_message("read", &g),
                    None,
                ));
            }
        }

        let Some(acc) = write else { continue };
        let mut model_ok = true;
        if !acc.exact || !acc.map.is_exact() {
            model_ok = false;
            diags.push(diag(
                Severity::Error,
                codes::INEXACT_WRITE,
                Some(name),
                None,
                "write map lost exactness under projection; coherence updates would miss elements"
                    .into(),
                None,
            ));
        }
        if acc.may {
            model_ok = false;
            diags.push(diag(
                Severity::Error,
                codes::MAY_WRITE,
                Some(name),
                None,
                "write access is a may-access; a may-write cannot drive tracker updates soundly"
                    .into(),
                None,
            ));
        }
        if !model_ok {
            // The map itself is unusable — race/OOB/coverage findings on
            // top of it would be cascade noise.
            proven = [false; 3];
            continue;
        }

        if let Some(f) = lint::oob_finding(&acc.map, extents, &space)? {
            diags.push(diag(
                Severity::Error,
                codes::WRITE_OOB,
                Some(name),
                None,
                oob_message("write", &f),
                f.witness,
            ));
        }

        for axis in AXES {
            match race::check_axis(&acc.map, extents, &space, axis)? {
                AxisProof::Disjoint => {}
                AxisProof::Racy(w) => {
                    proven[axis.zyx_index()] = false;
                    let severity = if axis == suggested {
                        Severity::Error
                    } else {
                        Severity::Info
                    };
                    diags.push(diag(
                        severity,
                        codes::CROSS_PARTITION_RACE,
                        Some(name),
                        Some(axis),
                        format!("two partitions along {axis} write the same element"),
                        Some(w),
                    ));
                }
                AxisProof::Unproven => {
                    proven[axis.zyx_index()] = false;
                    let severity = if axis == suggested {
                        Severity::Error
                    } else {
                        Severity::Info
                    };
                    diags.push(diag(
                        severity,
                        codes::AXIS_UNPROVEN,
                        Some(name),
                        Some(axis),
                        format!("write-disjointness along {axis} could not be proven"),
                        None,
                    ));
                }
            }
        }

        if let Some(g) =
            lint::coverage_gap(&acc.map, extents, &space, suggested, &model.scalar_params)?
        {
            diags.push(diag(
                Severity::Error,
                codes::COVERAGE_GAP,
                Some(name),
                Some(suggested),
                coverage_message("write", &g),
                None,
            ));
        }
    }

    if !model.verdict.is_partitionable() {
        proven = [false; 3];
    }
    // Most severe first, stable within a severity.
    diags.sort_by_key(|d| std::cmp::Reverse(d.severity));

    Ok(KernelCheck {
        kernel,
        suggested,
        proven_axes: proven,
        diagnostics: diags,
    })
}

/// Run every check over every kernel of an application model.
pub fn check_app(app: &AppModel) -> Result<CheckReport> {
    let mut report = CheckReport::default();
    for k in &app.kernels {
        report.kernels.push(check_kernel(k)?);
    }
    Ok(report)
}

fn oob_message(kind: &str, f: &OobFinding) -> String {
    let side = if f.low_side {
        "below 0".to_string()
    } else {
        "past the declared extent".to_string()
    };
    format!("{kind} image escapes {side} in dimension {}", f.dim)
}

fn coverage_message(kind: &str, g: &CoverageGap) -> String {
    format!(
        "enumerator misses {kind} element {:?} (linear offset {}) of partition {}",
        g.element, g.linear, g.partition
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mekong_analysis::ArrayAccess;
    use mekong_kernel::{Extent, ScalarTy};
    use mekong_poly::Map;

    fn exact_write() -> ArrayAccess {
        ArrayAccess {
            map: Map::parse(
                "[bdz, bdy, bdx, gdz, gdy, gdx, n] -> \
                 { [boz, boy, box, biz, biy, bix] -> [e] : \
                   box <= e and e < box + bdx and 0 <= e and e < n and \
                   boz >= 0 and boy >= 0 and box >= 0 and \
                   0 <= biz and biz < gdz and 0 <= biy and biy < gdy and \
                   0 <= bix and bix < gdx }",
            )
            .unwrap(),
            exact: true,
            may: false,
            interval: false,
        }
    }

    fn boxed_read() -> ArrayAccess {
        // A bounded interval box: every block may read e ∈ [7, 16],
        // clipped to the declared extent — what the abstract interpreter
        // emits for an annotated indirect load.
        ArrayAccess {
            map: Map::parse(
                "[bdz, bdy, bdx, gdz, gdy, gdx, n] -> \
                 { [boz, boy, box, biz, biy, bix] -> [e] : \
                   7 <= e and e <= 16 and 0 <= e and e < n and \
                   box >= 0 and 0 <= bix and bix < gdx }",
            )
            .unwrap(),
            exact: false,
            may: true,
            interval: true,
        }
    }

    fn model(
        read: Option<ArrayAccess>,
        write: Option<ArrayAccess>,
        verdict: Verdict,
    ) -> KernelModel {
        KernelModel {
            kernel_name: "k".into(),
            partitioning: SplitAxis::X,
            verdict,
            args: vec![
                ArgModel::Scalar {
                    name: "n".into(),
                    ty: ScalarTy::I64,
                },
                ArgModel::Array {
                    name: "a".into(),
                    elem: ScalarTy::F32,
                    extents: vec![Extent::Param("n".into())],
                    read,
                    write: None,
                },
                ArgModel::Array {
                    name: "out".into(),
                    elem: ScalarTy::F32,
                    extents: vec![Extent::Param("n".into())],
                    read: None,
                    write,
                },
            ],
            scalar_params: vec!["n".into()],
        }
    }

    #[test]
    fn interval_read_gets_bounded_may_read_info() {
        let m = model(
            Some(boxed_read()),
            Some(exact_write()),
            Verdict::Partitionable,
        );
        let kc = check_kernel(&m).unwrap();
        let d = kc
            .diagnostics
            .iter()
            .find(|d| d.code == codes::BOUNDED_MAY_READ)
            .expect("bounded-may-read diagnostic");
        assert_eq!(d.severity, Severity::Info);
        assert_eq!(d.array.as_deref(), Some("a"));
        // The sampled box is [7, 16] under extents n = 32, fully touched.
        assert!(d.message.contains("[7, 16]"), "message: {}", d.message);
        assert!(
            d.message.contains("tightness 1.00"),
            "message: {}",
            d.message
        );
        // Bounded reads do not cost the kernel its partitioning proof.
        assert!(kc.proven_axes[SplitAxis::X.zyx_index()]);
        assert!(kc.diagnostics.iter().all(|d| d.severity < Severity::Error));
    }

    #[test]
    fn inexact_write_is_still_an_error() {
        let mut w = exact_write();
        w.exact = false;
        let m = model(
            Some(boxed_read()),
            Some(w),
            Verdict::InexactWrite {
                array: "out".into(),
            },
        );
        let kc = check_kernel(&m).unwrap();
        assert!(kc
            .diagnostics
            .iter()
            .any(|d| d.code == codes::INEXACT_WRITE && d.severity == Severity::Error));
        assert_eq!(kc.proven_axes, [false; 3]);
    }

    #[test]
    fn report_counts_warnings_for_deny_mode() {
        let m = model(Some(boxed_read()), None, Verdict::Partitionable);
        let report = check_app(&AppModel { kernels: vec![m] }).unwrap();
        // `out` carries no access → dead-array warning; the interval
        // read itself is only Info.
        assert!(!report.has_errors());
        assert!(report.has_warnings());
        assert_eq!(report.warning_count(), 1);
    }
}
