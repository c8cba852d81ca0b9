//! Diagnostic types shared by the race detector and the model linter.

use mekong_analysis::SplitAxis;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How bad a diagnostic is.
///
/// Ordering is meaningful: `Info < Warning < Error`. `Error` means the
/// partitioned execution could be unsound (or the model is too weak to
/// prove it sound) — CI fails the build on any `Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Informational — e.g. a non-suggested axis the tuner will avoid.
    Info,
    /// Suspicious but not unsound under the runtime's actual behaviour.
    Warning,
    /// Partitioning along the flagged configuration is (or cannot be
    /// proven) safe.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes (the `code` field of [`Diagnostic`]).
pub mod codes {
    /// Two distinct partitions write the same element (witness attached).
    pub const CROSS_PARTITION_RACE: &str = "cross-partition-race";
    /// Disjointness could not be proven along an axis (no witness found).
    pub(crate) const AXIS_UNPROVEN: &str = "axis-unproven";
    /// A write map lost exactness under Fourier–Motzkin projection.
    pub const INEXACT_WRITE: &str = "inexact-write-map";
    /// A write access is a `may` access — it cannot drive coherence.
    pub const MAY_WRITE: &str = "may-write";
    /// A write image escapes the declared array extents.
    pub const WRITE_OOB: &str = "write-out-of-bounds";
    /// A read image escapes the declared array extents (reads are
    /// clipped by the enumerators, so this is a warning, not an error).
    pub(crate) const READ_OOB: &str = "read-out-of-bounds";
    /// An array argument is neither read nor written.
    pub const DEAD_ARRAY: &str = "dead-array-arg";
    /// The compiled enumerator misses an element of the true image.
    pub(crate) const COVERAGE_GAP: &str = "enumerator-coverage-gap";
    /// An access could not be modeled at all; the kernel falls back to
    /// single-device execution.
    pub(crate) const UNMODELED: &str = "unmodeled-array";
    /// A read footprint is a bounded interval box from the abstract
    /// interpreter — sound but over-approximated; the runtime fetches
    /// the whole box.
    pub const BOUNDED_MAY_READ: &str = "bounded-may-read";
}

/// Version of the JSON report schema emitted by `mekong-check --json`.
///
/// Bumped whenever the serialized shape of [`CheckReport`] (or the
/// CLI's per-file wrapper) changes incompatibly, so CI consumers can
/// detect skew between the binary and their parsers.
pub const SCHEMA_VERSION: u32 = 1;

/// A concrete point demonstrating a diagnostic.
///
/// For a cross-partition race both `block_a` and `block_b` are set: the
/// two blocks live in different partitions along the flagged axis yet
/// write the same `element`. For an out-of-bounds access only `block_a`
/// is set and `element` lies outside the declared extents.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Witness {
    /// Concrete parameter binding `(name, value)` under which the
    /// witness point exists (block/grid dims plus scalar arguments).
    pub params: Vec<(String, i64)>,
    /// `blockIdx` of the first offending block, `[z, y, x]`.
    pub block_a: [i64; 3],
    /// `blockIdx` of the second offending block (races only), `[z, y, x]`.
    pub block_b: Option<[i64; 3]>,
    /// The array element both blocks touch (row-major index vector).
    pub element: Vec<i64>,
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps: Vec<String> = self
            .params
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect();
        let el: Vec<String> = self.element.iter().map(|v| v.to_string()).collect();
        write!(f, "with {}: block {:?}", ps.join(", "), self.block_a)?;
        if let Some(b) = self.block_b {
            write!(f, " and block {b:?}")?;
        }
        write!(f, " touch element [{}]", el.join(", "))
    }
}

/// One finding of the checker.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Severity rank; `Error` fails CI.
    pub severity: Severity,
    /// Stable machine-readable code from [`codes`].
    pub code: String,
    /// Kernel the finding belongs to.
    pub kernel: String,
    /// Array argument the finding belongs to, when applicable.
    pub array: Option<String>,
    /// Split axis the finding belongs to, when applicable.
    pub axis: Option<SplitAxis>,
    /// Human-readable explanation.
    pub message: String,
    /// Concrete demonstration, when one could be constructed.
    pub witness: Option<Witness>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] {}", self.severity, self.code, self.kernel)?;
        if let Some(a) = &self.array {
            write!(f, ".{a}")?;
        }
        if let Some(ax) = self.axis {
            write!(f, " (axis {ax})")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(w) = &self.witness {
            write!(f, "\n    witness: {w}")?;
        }
        Ok(())
    }
}

/// Which split axes are statically proven write-disjoint.
///
/// Stored in `[z, y, x]` order to match the rest of the polyhedral
/// machinery. The tuner intersects its candidate axes with this mask
/// and the runtime refuses (or warns about) launches along a cleared
/// axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AxisMask {
    /// Per-axis allowance, `[z, y, x]` order.
    pub zyx: [bool; 3],
}

impl AxisMask {
    /// Every axis allowed (the state of the world before this checker).
    pub fn all() -> Self {
        AxisMask { zyx: [true; 3] }
    }

    /// No axis allowed — the kernel must not be partitioned.
    pub fn none() -> Self {
        AxisMask { zyx: [false; 3] }
    }

    /// Is splitting along `axis` proven safe?
    pub fn allows(&self, axis: SplitAxis) -> bool {
        self.zyx[axis.zyx_index()]
    }
}

impl fmt::Display for AxisMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = ["z", "y", "x"];
        let on: Vec<&str> = (0..3).filter(|&i| self.zyx[i]).map(|i| names[i]).collect();
        if on.is_empty() {
            write!(f, "∅")
        } else {
            write!(f, "{{{}}}", on.join(","))
        }
    }
}

/// Checker result for one kernel.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelCheck {
    /// Kernel name.
    pub kernel: String,
    /// The axis the §4 analysis suggested.
    pub suggested: SplitAxis,
    /// Per-axis disjointness proofs, `[z, y, x]` order.
    pub proven_axes: [bool; 3],
    /// All findings for this kernel, most severe first.
    pub diagnostics: Vec<Diagnostic>,
}

impl KernelCheck {
    /// The proven axes as a mask the tuner/runtime can consume.
    pub fn safe_axes(&self) -> AxisMask {
        AxisMask {
            zyx: self.proven_axes,
        }
    }
}

/// Checker result for a whole application model.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CheckReport {
    /// One entry per kernel, in model order.
    pub kernels: Vec<KernelCheck>,
}

impl CheckReport {
    /// Number of `Error`-severity diagnostics across all kernels.
    pub fn error_count(&self) -> usize {
        self.kernels
            .iter()
            .flat_map(|k| k.diagnostics.iter())
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Does any kernel carry an `Error`-severity diagnostic?
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Number of `Warning`-severity diagnostics across all kernels.
    pub fn warning_count(&self) -> usize {
        self.kernels
            .iter()
            .flat_map(|k| k.diagnostics.iter())
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Does any kernel carry a `Warning`-severity (or worse) diagnostic?
    /// Drives the CLI's `--deny-warnings` exit code.
    pub fn has_warnings(&self) -> bool {
        self.warning_count() > 0 || self.has_errors()
    }

    /// Serialize for `mekong-check --json`.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }
}
