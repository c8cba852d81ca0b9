//! The application model (paper §4: "the application model is
//! saved to disk. For each kernel, a record is created that contains the
//! kernel's name, suggested partitioning strategy, and a list of its
//! arguments. The read and write maps of arrays are stored per-argument.")
//!
//! The compiler hands the model from analysis to code generation in
//! memory; the JSON form is an *export* — what `mekongc` and
//! `mekong-bench dump-models` write and `mekong-check` reads — and
//! [`AppModel::from_json`] is the one door through which a model the
//! analysis did not just build gets in, so it validates what it lets in.

use crate::space::{N_FIXED_PARAMS, N_MAP_IN};
use crate::strategy::SplitAxis;
use mekong_kernel::{Extent, ScalarTy};
use mekong_poly::{Constraint, Map};
use serde::{Deserialize, Serialize};

/// Read or write access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessKind {
    Read,
    Write,
}

/// One access map of one array argument.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrayAccess {
    /// The polyhedral map `Z^6 → Z^d` (blockOff/blockIdx → array coords).
    pub map: Map,
    /// Whether the map is exact. Inexact read maps are a legal
    /// over-approximation; inexact write maps reject partitioning.
    pub exact: bool,
    /// True if some contributing access was optional ("may"). Currently
    /// treated like "must" (paper: pessimistic but correct).
    pub may: bool,
    /// True if some piece of the map is an interval *box* from the
    /// abstract interpreter (bounded may-read footprint) rather than an
    /// affine equality. Only reads carry this; boxed writes reject
    /// partitioning before a model is consumed.
    #[serde(default)]
    pub interval: bool,
}

/// Model of one kernel argument.
// A kernel has a handful of these, ever; boxing the access maps would
// complicate every construction and match site for no measurable gain.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArgModel {
    Scalar {
        name: String,
        ty: ScalarTy,
    },
    Array {
        name: String,
        elem: ScalarTy,
        /// Array extents (outermost first) in terms of scalar params.
        extents: Vec<Extent>,
        read: Option<ArrayAccess>,
        write: Option<ArrayAccess>,
    },
}

impl ArgModel {
    /// Argument name.
    pub fn name(&self) -> &str {
        match self {
            ArgModel::Scalar { name, .. } | ArgModel::Array { name, .. } => name,
        }
    }

    /// Is this argument an array that the kernel writes?
    pub fn is_written_array(&self) -> bool {
        matches!(self, ArgModel::Array { write: Some(_), .. })
    }
}

/// Can the kernel be partitioned across devices?
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// All checks passed.
    Partitionable,
    /// A write map was over-approximated; tracker updates would be wrong.
    InexactWrite { array: String },
    /// A write map is not injective at block granularity (WAW hazard
    /// across partitions, paper §4).
    NonInjectiveWrite { array: String },
    /// An access could not be modeled at all (non-affine index).
    Unmodeled { array: String },
}

impl Verdict {
    /// True if multi-device partitioning is allowed.
    pub fn is_partitionable(&self) -> bool {
        matches!(self, Verdict::Partitionable)
    }
}

/// The per-kernel record of the application model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelModel {
    pub kernel_name: String,
    /// Suggested grid axis to split (paper: "suggested partitioning
    /// strategy").
    pub partitioning: SplitAxis,
    /// Verdict of the soundness checks.
    pub verdict: Verdict,
    /// Per-argument models, in kernel parameter order.
    pub args: Vec<ArgModel>,
    /// Names of the scalar parameters (defines the parameter layout of the
    /// maps after the six fixed grid parameters).
    pub scalar_params: Vec<String>,
}

impl KernelModel {
    /// The model of an argument by name.
    pub fn arg(&self, name: &str) -> Option<&ArgModel> {
        self.args.iter().find(|a| a.name() == name)
    }

    /// Do the access maps have the shape this record declares? The checker
    /// and the enumerator generator index map dimensions and parameters by
    /// that shape, so a record from outside must pass before they see it.
    pub fn validate(&self) -> Result<(), ModelError> {
        let n_params = N_FIXED_PARAMS + self.scalar_params.len();
        for arg in &self.args {
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
            let needs = (N_MAP_IN, extents.len(), n_params);
            for acc in read.iter().chain(write) {
                let problem = match map_shape(&acc.map) {
                    Some(shape) if shape == needs => continue,
                    Some((n_in, n_out, np)) => format!(
                        "has {n_in} inputs, {n_out} outputs and {np} parameters; \
                         its record needs {}, {} and {}",
                        needs.0, needs.1, needs.2
                    ),
                    None => "has pieces or constraints wider or narrower than its space".into(),
                };
                return Err(ModelError::Map {
                    kernel: self.kernel_name.clone(),
                    array: name.clone(),
                    problem,
                });
            }
        }
        Ok(())
    }
}

/// The whole application model: one record per kernel (paper §3 writes it
/// to disk between the two compiler passes; here it stays in memory).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AppModel {
    pub kernels: Vec<KernelModel>,
}

impl AppModel {
    /// Look up a kernel's model.
    pub fn kernel(&self, name: &str) -> Option<&KernelModel> {
        self.kernels.iter().find(|k| k.kernel_name == name)
    }

    /// Serialize to compact JSON (the export format).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("model serialization cannot fail")
    }

    /// Deserialize from JSON, refusing a model with a record that is not
    /// [valid](KernelModel::validate).
    pub fn from_json(text: &str) -> Result<AppModel, ModelError> {
        let app: AppModel = serde_json::from_str(text).map_err(ModelError::Json)?;
        app.kernels.iter().try_for_each(KernelModel::validate)?;
        Ok(app)
    }
}

/// `(inputs, outputs, parameters)` of a map that came from outside, `None`
/// if its parts contradict each other: more inputs than dimensions, or a
/// piece or a constraint that is not as wide as the space says.
fn map_shape(map: &Map) -> Option<(usize, usize, usize)> {
    let rel = map.relation();
    let (n_dims, n_params) = (rel.n_dims(), rel.n_params());
    let consistent = rel.pieces().iter().all(|p| {
        let as_wide = |c: &Constraint| c.expr.coeffs.len() == n_dims + n_params;
        (p.n_dims(), p.n_params()) == (n_dims, n_params) && p.constraints().iter().all(as_wide)
    });
    let n_out = n_dims.checked_sub(map.n_in())?;
    consistent.then_some((map.n_in(), n_out, n_params))
}

/// Why [`AppModel::from_json`] refused its input.
#[derive(Debug, Clone)]
pub enum ModelError {
    /// Not JSON, or not the JSON of an application model.
    Json(serde_json::Error),
    /// An access map that is not over the six block coordinates, the
    /// array's rank and the six launch parameters plus the kernel's
    /// scalars, or not even consistent in itself.
    Map {
        kernel: String,
        array: String,
        problem: String,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::Json(e) => write!(f, "{e}"),
            ModelError::Map {
                kernel,
                array,
                problem,
            } => write!(f, "kernel {kernel}, array {array}: access map {problem}"),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    const PARAMS: &str = "[bdz,bdy,bdx,gdz,gdy,gdx,n] -> ";

    fn vadd_model() -> AppModel {
        AppModel {
            kernels: vec![KernelModel {
                kernel_name: "vadd".into(),
                partitioning: SplitAxis::X,
                verdict: Verdict::Partitionable,
                args: vec![
                    ArgModel::Scalar {
                        name: "n".into(),
                        ty: ScalarTy::I64,
                    },
                    ArgModel::Array {
                        name: "a".into(),
                        elem: ScalarTy::F32,
                        extents: vec![Extent::Param("n".into())],
                        read: Some(ArrayAccess {
                            map: map("{ [boz,boy,box,biz,biy,bix] -> [e] : e = box }"),
                            exact: true,
                            may: false,
                            interval: false,
                        }),
                        write: None,
                    },
                ],
                scalar_params: vec!["n".into()],
            }],
        }
    }

    fn map(body: &str) -> Map {
        Map::parse(&format!("{PARAMS}{body}")).unwrap()
    }

    #[test]
    fn model_roundtrips_through_json() {
        let m = vadd_model();
        let json = m.to_json();
        assert!(!json.contains('\n'), "the export is compact");
        let back = AppModel::from_json(&json).unwrap();
        assert_eq!(back, m);
        let k = back.kernel("vadd").unwrap();
        assert!(k.verdict.is_partitionable());
        assert!(matches!(
            k.arg("a").unwrap(),
            ArgModel::Array { read: Some(_), .. }
        ));
        assert!(!k.arg("a").unwrap().is_written_array());
    }

    /// A record that declares a shape its maps do not have is refused at
    /// the door, whichever of the three counts is off.
    #[test]
    fn from_json_refuses_maps_that_do_not_fit_their_record() {
        let refused_json = |json: &str| match AppModel::from_json(json) {
            Err(ModelError::Map { kernel, array, .. }) => {
                assert_eq!((kernel.as_str(), array.as_str()), ("vadd", "a"));
            }
            other => panic!("expected a map error, got {other:?}"),
        };
        let refused = |broken: AppModel| refused_json(&broken.to_json());
        let with_map = |m: Map| {
            let mut broken = vadd_model();
            let ArgModel::Array { read: Some(r), .. } = &mut broken.kernels[0].args[1] else {
                unreachable!("args[1] is the read array");
            };
            r.map = m;
            broken
        };
        refused(with_map(map("{ [boz,boy,box,biz,biy] -> [e] : e = box }")));
        refused(with_map(map(
            "{ [boz,boy,box,biz,biy,bix] -> [r,c] : c = box }",
        )));
        let mut extra_scalar = vadd_model();
        extra_scalar.kernels[0].scalar_params.push("m".into());
        refused(extra_scalar);
        // A constraint with a coefficient missing, a piece of another width.
        let good = vadd_model().to_json();
        assert!(good.contains("\"coeffs\":[0,") && good.contains("\"n_dims\":7"));
        refused_json(&good.replacen("\"coeffs\":[0,", "\"coeffs\":[", 1));
        refused_json(&good.replacen("\"n_dims\":7", "\"n_dims\":8", 1));
        assert!(matches!(
            AppModel::from_json("{\"kernels\": 3}"),
            Err(ModelError::Json(_))
        ));
    }
}
