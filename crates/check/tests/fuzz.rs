//! Robustness past the parser: every program the frontend's statement
//! soup parses also goes through `compile_source` and, when it compiles,
//! through `check_app`. Either may refuse the program with a typed error;
//! neither may panic. Literals at the ends of the 64-bit range reach the
//! analysis' constraint arithmetic, where an overflow must degrade or
//! surface as an error.

use mekong_check::check_app;
use mekong_core::compile_source;
use mekong_frontend::parse_program;
use proptest::prelude::*;

/// Integer literals near `i64::MIN` and `i64::MAX` (the minimum is
/// spelled as an expression, as in C) and a small one for contrast.
const LITERALS: [&str; 5] = [
    "9223372036854775807",
    "9223372036854775806",
    "(-9223372036854775807 - 1)",
    "-9223372036854775807",
    "2",
];

/// Statements around one literal `L`: indices, conditions, a loop
/// bound, a scale, a reassignment of the global index, a remainder and
/// an absolute value.
const TEMPLATES: [&str; 8] = [
    "a[i + L] = a[i];",
    "a[i] = a[i - L];",
    "a[L * i] = 1.0f;",
    "if (i < L) { a[i] = 2.0f; }",
    "if (i - L == n) { a[i] = 3.0f; }",
    "for (int j = L; j < n; j++) { a[j] = 0.0f; }",
    "i = i - L;",
    "a[i % L] = a[abs(L)];",
];

const HEADER: &str = "__global__ void k(int n, float a[n]) {";
const INDEX: &str = "int i = blockIdx.x * blockDim.x + threadIdx.x;";

/// The frontend fuzzer's statement vocabulary.
fn vocabulary() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(HEADER.to_string()),
        Just(INDEX.to_string()),
        Just("if (i >= n) return;".to_string()),
        Just("a[i] = 1.0f;".to_string()),
        Just("for (int j = 0; j < n; j++) { a[j] = 0.0f; }".to_string()),
        Just("}".to_string()),
    ]
}

/// One of [`TEMPLATES`] around one of [`LITERALS`].
fn extreme() -> impl Strategy<Value = String> {
    (0..TEMPLATES.len(), 0..LITERALS.len())
        .prop_map(|(t, l)| TEMPLATES[t].replace('L', LITERALS[l]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Half the soups are wrapped in a kernel header, the global index
    /// and the closing brace, so most of them parse and reach the
    /// analysis.
    #[test]
    fn parsed_programs_compile_and_check_without_panicking(
        wrap in proptest::bool::ANY,
        words in proptest::collection::vec(prop_oneof![vocabulary(), extreme()], 0..12),
    ) {
        let mut src = words.join("\n");
        if wrap {
            src = format!("{HEADER}\n{INDEX}\n{src}\n}}");
        }
        if parse_program(&src).is_ok() {
            if let Ok(program) = compile_source(&src) {
                let _ = check_app(&program.model);
            }
        }
    }
}
