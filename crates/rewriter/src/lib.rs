//! # mekong-rewriter — host code source-to-source transformation (§5)
//!
//! The counterpart of the paper's lua preprocessor. Three substitution
//! classes, applied to the host portion of a translation unit:
//!
//! 1. **Header inserts** at the top of the file (runtime declarations),
//! 2. **CUDA API renames** to the multi-GPU primitives (§8.4) —
//!    `cudaMalloc → mekongMalloc` etc.,
//! 3. **Kernel-launch expansion**: every `k<<<grid, block>>>(args);`
//!    becomes the Figure 4 sequence — synchronize read buffers, launch the
//!    partitions, update the trackers.
//!
//! The rewriter operates on tokens (not regexes) but is deliberately
//! layout-preserving like the original: host code it does not understand
//! passes through verbatim.

use mekong_frontend::lexer::{lex, Token, TokenKind};
use mekong_frontend::{ParseError, Result};

/// The CUDA → Mekong identifier substitutions (§8.4: "The CUDA
/// replacement functions have identical prototypes to their CUDA API
/// counterparts").
pub(crate) const API_RENAMES: &[(&str, &str)] = &[
    ("cudaMalloc", "mekongMalloc"),
    ("cudaFree", "mekongFree"),
    ("cudaMemcpyAsync", "mekongMemcpyAsync"),
    ("cudaMemcpy", "mekongMemcpy"),
    ("cudaGetDeviceCount", "mekongGetDeviceCount"),
    ("cudaDeviceSynchronize", "mekongDeviceSynchronize"),
    ("cudaSetDevice", "mekongSetDevice"),
];

/// The header block inserted at the top of every rewritten file.
pub(crate) const HEADER: &str = "\
/* --- inserted by the mekong rewriter --- */
#include \"mekong_runtime.h\"
/* ---------------------------------------- */
";

/// One rewritten kernel launch found in the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchSite {
    pub kernel: String,
    pub grid: String,
    pub block: String,
    pub args: Vec<String>,
    pub line: usize,
}

/// Result of rewriting: the new source plus the launch sites that were
/// expanded (useful for diagnostics and tests).
#[derive(Debug, Clone)]
pub struct Rewritten {
    pub source: String,
    pub launches: Vec<LaunchSite>,
}

/// Rewrite host source: header insert + API renames + launch expansion.
pub fn rewrite_host(src: &str) -> Result<Rewritten> {
    let tokens = lex(src)?;
    let mut out = String::with_capacity(src.len() * 2);
    out.push_str(HEADER);
    let mut launches = Vec::new();
    let mut cursor = 0usize;

    let mut i = 0usize;
    while i < tokens.len() {
        // Launch site: IDENT <<< expr , expr >>> ( args ) ;
        if let TokenKind::Ident(_) = &tokens[i].kind {
            if tokens.get(i + 1).map(|t| &t.kind) == Some(&TokenKind::LaunchOpen) {
                let start_off = tokens[i].start;
                let (site, end_tok) = parse_launch(src, &tokens, i)?;
                // Copy text before the launch, substituting API names.
                out.push_str(&rename_apis(&src[cursor..start_off]));
                out.push_str(&expand_launch(&site));
                launches.push(site);
                cursor = end_after(src, &tokens, end_tok);
                i = end_tok + 1;
                continue;
            }
        }
        i += 1;
    }
    out.push_str(&rename_apis(&src[cursor..]));
    Ok(Rewritten {
        source: out,
        launches,
    })
}

/// Byte offset just after token `idx` (start of the next token, or EOF).
fn end_after(src: &str, tokens: &[Token], idx: usize) -> usize {
    tokens.get(idx + 1).map(|t| t.start).unwrap_or(src.len())
}

/// Substitute CUDA API identifiers in a raw text slice
/// (identifier-boundary aware).
pub(crate) fn rename_apis(text: &str) -> String {
    let mut out = text.to_string();
    for (from, to) in API_RENAMES {
        let mut result = String::with_capacity(out.len());
        let mut rest = out.as_str();
        while let Some(pos) = rest.find(from) {
            let before_ok = !rest[..pos]
                .chars()
                .next_back()
                .map(|c| c.is_ascii_alphanumeric() || c == '_')
                .unwrap_or(false);
            let after = &rest[pos + from.len()..];
            let after_ok = !after
                .chars()
                .next()
                .map(|c| c.is_ascii_alphanumeric() || c == '_')
                .unwrap_or(false);
            result.push_str(&rest[..pos]);
            if before_ok && after_ok {
                result.push_str(to);
            } else {
                result.push_str(from);
            }
            rest = after;
        }
        result.push_str(rest);
        out = result;
    }
    out
}

/// Parse `name<<<grid, block>>>(arg, ...);` starting at token `i`.
/// Returns the site and the index of the terminating `;`.
fn parse_launch(src: &str, tokens: &[Token], i: usize) -> Result<(LaunchSite, usize)> {
    let line = tokens[i].line;
    let kernel = match &tokens[i].kind {
        TokenKind::Ident(s) => s.clone(),
        _ => unreachable!(),
    };
    let mut p = i + 2; // past <<<
    let grid_start = tokens.get(p).map(|t| t.start).ok_or(ParseError {
        line,
        message: "unterminated `<<<`".into(),
    })?;
    // grid expression: up to the comma at paren depth 0.
    let mut depth = 0usize;
    let mut comma = None;
    while p < tokens.len() {
        match &tokens[p].kind {
            TokenKind::LParen => depth += 1,
            TokenKind::RParen => depth = depth.saturating_sub(1),
            TokenKind::Comma if depth == 0 => {
                comma = Some(p);
                break;
            }
            TokenKind::LaunchClose if depth == 0 => break,
            _ => {}
        }
        p += 1;
    }
    let comma = comma.ok_or(ParseError {
        line,
        message: "kernel launch needs `<<<grid, block>>>`".into(),
    })?;
    let grid = src[grid_start..tokens[comma].start].trim().to_string();
    p = comma + 1;
    let block_start = tokens.get(p).map(|t| t.start).ok_or(ParseError {
        line,
        message: "unterminated `<<<`".into(),
    })?;
    while p < tokens.len() && tokens[p].kind != TokenKind::LaunchClose {
        p += 1;
    }
    if p >= tokens.len() {
        return Err(ParseError {
            line,
            message: "unterminated `<<<`".into(),
        });
    }
    let block = src[block_start..tokens[p].start].trim().to_string();
    p += 1; // past >>>
    if tokens.get(p).map(|t| &t.kind) != Some(&TokenKind::LParen) {
        return Err(ParseError {
            line,
            message: "expected '(' after `>>>`".into(),
        });
    }
    p += 1;
    // Split args on top-level commas.
    let mut args = Vec::new();
    let mut depth = 1usize;
    let mut arg_start = tokens.get(p).map(|t| t.start).unwrap_or(src.len());
    let mut closed = false;
    while p < tokens.len() {
        match &tokens[p].kind {
            TokenKind::LParen | TokenKind::LBracket => depth += 1,
            TokenKind::RBracket => depth -= 1,
            TokenKind::RParen => {
                depth -= 1;
                if depth == 0 {
                    let text = src[arg_start..tokens[p].start].trim();
                    if !text.is_empty() {
                        args.push(text.to_string());
                    }
                    closed = true;
                    break;
                }
            }
            TokenKind::Comma if depth == 1 => {
                args.push(src[arg_start..tokens[p].start].trim().to_string());
                arg_start = tokens[p + 1].start;
            }
            _ => {}
        }
        p += 1;
    }
    if !closed {
        return Err(ParseError {
            line,
            message: "unterminated launch argument list".into(),
        });
    }
    // Trailing semicolon.
    if tokens.get(p + 1).map(|t| &t.kind) != Some(&TokenKind::Semi) {
        return Err(ParseError {
            line,
            message: "kernel launch must end with ';'".into(),
        });
    }
    Ok((
        LaunchSite {
            kernel,
            grid,
            block,
            args,
            line,
        },
        p + 1,
    ))
}

/// Expand one launch into the Figure 4 replacement sequence.
fn expand_launch(site: &LaunchSite) -> String {
    let args = site.args.join(", ");
    let k = &site.kernel;
    let (grid, block) = (&site.grid, &site.block);
    format!(
        "{{ /* mekong: partitioned launch of {k} (was line {line}) */\n\
         \x20   mekongKernel* __mk = mekongGetKernel(\"{k}\");\n\
         \x20   for (int __g = 0; __g < mekongPartitionCount(); ++__g)\n\
         \x20       mekongSyncReadBuffers(__mk, __g, {grid}, {block}, MK_ARGS({args}));\n\
         \x20   mekongSynchronizeAll();\n\
         \x20   for (int __g = 0; __g < mekongPartitionCount(); ++__g)\n\
         \x20       mekongLaunchPartition(__mk, __g, {grid}, {block}, MK_ARGS({args}));\n\
         \x20   for (int __g = 0; __g < mekongPartitionCount(); ++__g)\n\
         \x20       mekongUpdateTrackers(__mk, __g, {grid}, {block}, MK_ARGS({args}));\n\
         }}",
        line = site.line,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOST: &str = r#"
int main() {
    int n = 1024;
    float *a, *b, *c;
    cudaMalloc(&a, n * sizeof(float));
    cudaMalloc(&b, n * sizeof(float));
    cudaMalloc(&c, n * sizeof(float));
    cudaMemcpy(a, h_a, n * sizeof(float), cudaMemcpyHostToDevice);
    cudaMemcpy(b, h_b, n * sizeof(float), cudaMemcpyHostToDevice);
    vadd<<<(n + 255) / 256, 256>>>(n, a, b, c);
    cudaDeviceSynchronize();
    cudaMemcpy(h_c, c, n * sizeof(float), cudaMemcpyDeviceToHost);
    cudaFree(a);
    return 0;
}
"#;

    #[test]
    fn header_is_inserted() {
        let r = rewrite_host(HOST).unwrap();
        assert!(r.source.starts_with(HEADER));
    }

    #[test]
    fn api_calls_are_renamed() {
        let r = rewrite_host(HOST).unwrap();
        assert!(r.source.contains("mekongMalloc(&a"));
        assert!(r.source.contains("mekongMemcpy(a, h_a"));
        assert!(r.source.contains("mekongDeviceSynchronize()"));
        assert!(r.source.contains("mekongFree(a)"));
        assert!(!r.source.contains("cudaMalloc"));
        assert!(!r.source.contains("cudaDeviceSynchronize"));
        // Memcpy direction constants are arguments, not API calls — they
        // stay (the replacement functions dispatch on them, §8.2).
        assert!(r.source.contains("cudaMemcpyHostToDevice"));
    }

    #[test]
    fn launch_expands_to_figure4_sequence() {
        let r = rewrite_host(HOST).unwrap();
        assert_eq!(r.launches.len(), 1);
        let l = &r.launches[0];
        assert_eq!(l.kernel, "vadd");
        assert_eq!(l.grid, "(n + 255) / 256");
        assert_eq!(l.block, "256");
        assert_eq!(l.args, vec!["n", "a", "b", "c"]);
        // The three loops of Figure 4, in order.
        let sync = r.source.find("mekongSyncReadBuffers").unwrap();
        let barrier = r.source.find("mekongSynchronizeAll").unwrap();
        let launch = r.source.find("mekongLaunchPartition").unwrap();
        let update = r.source.find("mekongUpdateTrackers").unwrap();
        assert!(sync < barrier && barrier < launch && launch < update);
        assert!(!r.source.contains("<<<"));
    }

    #[test]
    fn multiple_launches_and_nested_arg_parens() {
        let src = r#"
void run() {
    k1<<<g, b>>>(n, x);
    k2<<<dim3(gx, gy), dim3(bx, by)>>>(f(n, m), y);
}
"#;
        let r = rewrite_host(src).unwrap();
        assert_eq!(r.launches.len(), 2);
        assert_eq!(r.launches[1].kernel, "k2");
        assert_eq!(r.launches[1].grid, "dim3(gx, gy)");
        assert_eq!(r.launches[1].args, vec!["f(n, m)", "y"]);
    }

    #[test]
    fn renames_respect_identifier_boundaries() {
        let s = rename_apis("mycudaMallocator cudaMallocExt cudaMalloc(x)");
        assert!(s.contains("mycudaMallocator"));
        assert!(s.contains("cudaMallocExt"));
        assert!(s.contains("mekongMalloc(x)"));
    }

    #[test]
    fn passthrough_without_cuda() {
        let src = "int add(int a, int b) { return a + b; }\n";
        let r = rewrite_host(src).unwrap();
        assert!(r.source.ends_with(src));
        assert!(r.launches.is_empty());
    }

    #[test]
    fn unterminated_launch_errors() {
        let err = rewrite_host("void f() { k<<<g, b(x);\n }").unwrap_err();
        assert!(
            err.message.contains("unterminated") || err.message.contains("launch"),
            "{err}"
        );
    }
}
