//! `mekong-check` on model files the compiler did not write: a record
//! whose access maps do not have the shape it declares is refused where it
//! is read, with a message and exit code 1 — not a panic further in.

use std::process::Command;

const GOOD: &str = include_str!("fixtures/saxpy.model.json");

/// Run `mekong-check` on `model` written to a file called `name`.
fn check(name: &str, model: &str) -> (Option<i32>, String) {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, model).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_mekong-check"))
        .arg(&path)
        .output()
        .expect("mekong-check runs");
    (out.status.code(), String::from_utf8(out.stderr).unwrap())
}

#[test]
fn broken_model_files_are_refused_with_a_message() {
    assert_eq!(check("good.model.json", GOOD), (Some(0), String::new()));
    // (what is off, the hand edit, what the message must name)
    let edits = [
        ("inputs", (r#""n_in":6"#, r#""n_in":5"#), "5 inputs"),
        (
            "params",
            (
                r#""scalar_params":["n","alpha"]"#,
                r#""scalar_params":["n"]"#,
            ),
            "8 parameters",
        ),
        (
            "outputs",
            (
                r#""name":"x","elem":"F32","extents":[{"Param":["n"]}]"#,
                r#""name":"x","elem":"F32","extents":[{"Param":["n"]},{"Param":["n"]}]"#,
            ),
            "1 outputs",
        ),
    ];
    for (what, (from, to), names) in edits {
        assert!(
            GOOD.contains(from),
            "{what}: the fixture has the text to break"
        );
        let (code, stderr) = check(&format!("{what}.model.json"), &GOOD.replacen(from, to, 1));
        assert_eq!(code, Some(1), "{what}: {stderr}");
        assert!(
            stderr.contains("malformed model: kernel saxpy, array x") && stderr.contains(names),
            "{what}: {stderr}"
        );
    }
}
