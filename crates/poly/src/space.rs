//! Named dimension/parameter spaces.

use serde::{Deserialize, Serialize};

/// A space names the *set dimensions* and the *parameters* that affine
/// expressions and constraints range over.
///
/// Internally all arithmetic is positional: a coefficient vector has one
/// entry per set dimension followed by one entry per parameter. The names
/// exist for construction, pretty-printing and debugging.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Space {
    dims: Vec<String>,
    params: Vec<String>,
}

impl Space {
    /// Create a set space with the given dimension and parameter names.
    ///
    /// # Panics
    /// Panics if any name occurs twice (across dims *and* params); a space
    /// with shadowed names cannot be addressed by name unambiguously.
    pub fn set(dims: &[&str], params: &[&str]) -> Self {
        let space = Space {
            dims: dims.iter().map(|s| s.to_string()).collect(),
            params: params.iter().map(|s| s.to_string()).collect(),
        };
        space.assert_unique_names();
        space
    }

    /// Create a space from owned name vectors.
    pub fn from_names(dims: Vec<String>, params: Vec<String>) -> Self {
        let space = Space { dims, params };
        space.assert_unique_names();
        space
    }

    /// A space with `n` anonymous dimensions (`d0`, `d1`, ...) and `m`
    /// anonymous parameters (`p0`, `p1`, ...).
    pub fn anonymous(n_dims: usize, n_params: usize) -> Self {
        Space {
            dims: (0..n_dims).map(|i| format!("d{i}")).collect(),
            params: (0..n_params).map(|i| format!("p{i}")).collect(),
        }
    }

    fn assert_unique_names(&self) {
        let mut all: Vec<&str> = self
            .dims
            .iter()
            .chain(self.params.iter())
            .map(|s| s.as_str())
            .collect();
        all.sort_unstable();
        for w in all.windows(2) {
            assert_ne!(w[0], w[1], "duplicate name {:?} in space", w[0]);
        }
    }

    /// Number of set dimensions.
    pub fn n_dims(&self) -> usize {
        self.dims.len()
    }

    /// Number of parameters.
    pub fn n_params(&self) -> usize {
        self.params.len()
    }

    /// Total coefficient width (dims + params).
    pub fn width(&self) -> usize {
        self.dims.len() + self.params.len()
    }

    /// Dimension names in order.
    pub fn dim_names(&self) -> &[String] {
        &self.dims
    }

    /// Parameter names in order.
    pub fn param_names(&self) -> &[String] {
        &self.params
    }

    /// Index of the parameter called `name`, if any.
    pub fn param_index(&self, name: &str) -> Option<usize> {
        self.params.iter().position(|p| p == name)
    }

    /// The space of a map `[self] -> [other]`: dimensions concatenated,
    /// parameters taken from `self`.
    ///
    /// # Panics
    /// Panics if the parameter lists differ, or if names collide.
    pub fn product(&self, other: &Space) -> Space {
        assert_eq!(
            self.params, other.params,
            "product spaces must agree on parameters"
        );
        let mut dims = self.dims.clone();
        dims.extend(other.dims.iter().cloned());
        Space::from_names(dims, self.params.clone())
    }

    /// Structural compatibility: same dim/param *counts* (names are
    /// documentation; operations only require matching shape).
    pub fn compatible(&self, other: &Space) -> bool {
        self.dims.len() == other.dims.len() && self.params.len() == other.params.len()
    }
}

impl std::fmt::Display for Space {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.params.is_empty() {
            write!(f, "[{}] -> ", self.params.join(", "))?;
        }
        write!(f, "{{ [{}] }}", self.dims.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices() {
        let s = Space::set(&["y", "x"], &["n", "m"]);
        assert_eq!(s.n_dims(), 2);
        assert_eq!(s.n_params(), 2);
        assert_eq!(s.width(), 4);
        assert_eq!(s.param_index("n"), Some(0));
    }

    #[test]
    fn product_concatenates_dims() {
        let a = Space::set(&["i"], &["n"]);
        let b = Space::set(&["j"], &["n"]);
        let p = a.product(&b);
        assert_eq!(p.n_dims(), 2);
        assert_eq!(p.dim_names(), &["i".to_string(), "j".to_string()]);
    }

    #[test]
    #[should_panic(expected = "duplicate name")]
    fn rejects_duplicate_names() {
        Space::set(&["x", "x"], &[]);
    }

    #[test]
    fn display_forms() {
        let s = Space::set(&["y", "x"], &["n"]);
        assert_eq!(s.to_string(), "[n] -> { [y, x] }");
        let t = Space::set(&["i"], &[]);
        assert_eq!(t.to_string(), "{ [i] }");
    }
}
