//! `cargo xtask lint` — a hand-rolled, dependency-free static-analysis pass
//! enforcing SEDA-specific rules that clippy cannot express:
//!
//! 1. **forbidden-call** — no `unwrap()`, `panic!`, `unreachable!`, `todo!`
//!    or `unimplemented!` in non-test library code; `expect()` is allowed
//!    only with a message starting with `invariant: ` that names the
//!    invariant the `seda-audit` layer (`verify()`) checks.
//! 2. **counter-budget** — a library file that bumps one of the governed
//!    pipeline counters (`sorted_accesses`, `random_accesses`,
//!    `tuples_scored`, `label_probes`) must also reference the matching
//!    budget ceiling, so counters can never drift away from governance.
//! 3. **instant-now** — `Instant::now()` only inside `core/govern.rs` (the
//!    sanctioned clock module) and bench code, so every clock read is
//!    attributable.
//! 4. **unsafe-forbid** — the workspace lint table forbids `unsafe_code` and
//!    every member manifest inherits it via `lints.workspace = true`.
//! 5. **result-error** — public `seda-core` APIs returning `Result` use the
//!    unified `SedaError` taxonomy.
//! 6. **metric-name** — metric handles (`.counter(`, `.gauge(`,
//!    `.histogram(`) are looked up via the typed constants in
//!    `seda_core::metrics::names`, never via ad-hoc string literals, and each
//!    `seda_`-prefixed metric name constant is declared exactly once per
//!    file — so the metric catalog has a single authoritative registry.
//!
//! The pass lexes each source file just enough to blank out comments,
//! string/char literals and raw strings, so rules never fire on doc examples
//! or message text, then treats everything after the first `#[cfg(test)]`
//! as test code (the repository convention keeps test modules last).
//!
//! Run as `cargo xtask lint [--root <dir>]`; exits non-zero when any
//! violation is found.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Files exempt from the forbidden-call rule: the fault-injection module's
/// `panic!` *is* the injected fault under test.
const CALL_ALLOWLIST: &[&str] = &["crates/core/src/faults.rs"];

/// Bench harness code: fixture setup uses `expect` idiomatically and owns its
/// own timing; every rule except the manifest checks skips it.
const BENCH_PREFIX: &str = "crates/bench/";

/// Files allowed to call `Instant::now()`: the governance module is the
/// sanctioned clock owner, and the top-k searcher's deadline comparison is
/// itself a governance site (`seda-topk` cannot depend on `seda-core`).
const INSTANT_ALLOWLIST: &[&str] = &["crates/core/src/govern.rs", "crates/topk/src/searcher.rs"];

/// Files exempt from counter-budget pairing: `ExecProfile::absorb` aggregates
/// already-governed counters into the response profile after the fact.
const COUNTER_ALLOWLIST: &[&str] = &["crates/core/src/response.rs"];

/// `seda-core` files whose public `Result`s use typed sub-errors that the
/// facade converts via `From`: the query parser (`QueryError`).
const RESULT_ERROR_ALLOWLIST: &[&str] = &["crates/core/src/query.rs"];

/// Governed counter → identifiers that count as its budget check.
const COUNTER_BUDGETS: &[(&str, &[&str])] = &[
    ("sorted_accesses", &["max_sorted_accesses"]),
    ("random_accesses", &["max_random_accesses"]),
    ("tuples_scored", &["max_tuples_scored"]),
    ("label_probes", &["max_label_probes", "probe_ceiling"]),
];

/// One lint finding, reported as `file:line: [rule] detail`.
#[derive(Debug)]
struct Violation {
    file: String,
    line: usize,
    rule: &'static str,
    detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.detail)
    }
}

/// Blanks out comments, string literals, char literals and raw strings,
/// preserving length and line structure so byte offsets and line numbers stay
/// valid.  Lifetimes (`'a`) are left untouched.
fn mask_source(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = bytes.to_vec();
    let mut i = 0;
    let blank = |out: &mut [u8], from: usize, to: usize| {
        for slot in &mut out[from..to] {
            if *slot != b'\n' {
                *slot = b' ';
            }
        }
    };
    while i < bytes.len() {
        match bytes[i] {
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                let end = src[i..].find('\n').map(|n| i + n).unwrap_or(bytes.len());
                blank(&mut out, i, end);
                i = end;
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let mut depth = 1;
                let mut j = i + 2;
                while j + 1 < bytes.len() && depth > 0 {
                    if bytes[j] == b'/' && bytes[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && bytes[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, i, j.min(bytes.len()));
                i = j;
            }
            b'"' => {
                let mut j = i + 1;
                while j < bytes.len() {
                    match bytes[j] {
                        b'\\' => j += 2,
                        b'"' => break,
                        _ => j += 1,
                    }
                }
                blank(&mut out, i, (j + 1).min(bytes.len()));
                i = j + 1;
            }
            b'r' | b'b'
                if is_raw_string_start(bytes, i) && (i == 0 || !is_ident_byte(bytes[i - 1])) =>
            {
                let (hashes, quote) = raw_string_shape(bytes, i);
                let terminator = format!("\"{}", "#".repeat(hashes));
                let body_start = quote + 1;
                let end = src[body_start..]
                    .find(&terminator)
                    .map(|n| body_start + n + terminator.len())
                    .unwrap_or(bytes.len());
                blank(&mut out, i, end);
                i = end;
            }
            b'\'' => {
                // Char literal iff it closes within a couple of characters;
                // otherwise it is a lifetime and only the quote is consumed.
                if i + 2 < bytes.len() && bytes[i + 1] == b'\\' {
                    let mut j = i + 2;
                    while j < bytes.len() && bytes[j] != b'\'' {
                        j += 1;
                    }
                    blank(&mut out, i, (j + 1).min(bytes.len()));
                    i = j + 1;
                } else if i + 2 < bytes.len() && bytes[i + 1] != b'\'' && bytes[i + 2] == b'\'' {
                    blank(&mut out, i, i + 3);
                    i += 3;
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8(out).expect("invariant: masking replaces bytes with ASCII spaces only")
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// True when `bytes[i..]` starts a raw (byte) string: `r"`, `r#"`, `br"`, …
fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if j >= bytes.len() || bytes[j] != b'r' {
        return false;
    }
    j += 1;
    while j < bytes.len() && bytes[j] == b'#' {
        j += 1;
    }
    j < bytes.len() && bytes[j] == b'"'
}

/// Returns (hash count, index of the opening quote) of a raw string at `i`.
fn raw_string_shape(bytes: &[u8], i: usize) -> (usize, usize) {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    j += 1; // the 'r'
    let mut hashes = 0;
    while bytes[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    (hashes, j)
}

/// Byte offset where test code starts: the first `#[cfg(test)]` marker (the
/// repository convention keeps test modules at the end of each file).
fn lib_region_end(masked: &str) -> usize {
    masked.find("#[cfg(test").unwrap_or(masked.len())
}

fn line_of(src: &str, offset: usize) -> usize {
    src[..offset].bytes().filter(|&b| b == b'\n').count() + 1
}

/// Every offset where `needle` occurs in `haystack[..end]`.
fn find_all(haystack: &str, needle: &str, end: usize) -> Vec<usize> {
    let mut found = Vec::new();
    let mut from = 0;
    while let Some(at) = haystack[from..end].find(needle) {
        found.push(from + at);
        from += at + needle.len();
    }
    found
}

/// Rule 1+2+3+5 over one source file (`rel` is the root-relative path with
/// `/` separators).
fn lint_file(rel: &str, src: &str) -> Vec<Violation> {
    let mut violations = Vec::new();
    if rel.starts_with(BENCH_PREFIX) {
        return violations;
    }
    let masked = mask_source(src);
    let lib_end = lib_region_end(&masked);
    let report = |violations: &mut Vec<Violation>,
                  at: usize,
                  rule: &'static str,
                  detail: String| {
        violations.push(Violation { file: rel.to_string(), line: line_of(src, at), rule, detail });
    };

    // Rule 1: forbidden calls in library code.
    if !CALL_ALLOWLIST.contains(&rel) {
        for needle in [".unwrap()", "panic!(", "unreachable!(", "todo!(", "unimplemented!("] {
            for at in find_all(&masked, needle, lib_end) {
                // `panic!(` must not also match `core::panic!(` paths or
                // idents ending in panic — require a non-ident byte before.
                if needle.ends_with("!(") && at > 0 && is_ident_byte(masked.as_bytes()[at - 1]) {
                    continue;
                }
                report(
                    &mut violations,
                    at,
                    "forbidden-call",
                    format!("`{}` in library code", needle.trim_end_matches('(')),
                );
            }
        }
        for at in find_all(&masked, ".expect(", lib_end) {
            let arg_start = at + ".expect(".len();
            let arg = src[arg_start..].trim_start();
            let ok = arg.strip_prefix('"').is_some_and(|m| m.starts_with("invariant: "));
            if !ok {
                report(
                    &mut violations,
                    at,
                    "forbidden-call",
                    "`.expect()` whose message does not start with \"invariant: \"".to_string(),
                );
            }
        }
    }

    // Rule 2: governed counter bumps must see their budget ceiling.
    if !COUNTER_ALLOWLIST.contains(&rel) {
        for (counter, budgets) in COUNTER_BUDGETS {
            let bump = format!("{counter} +=");
            for at in find_all(&masked, &bump, lib_end) {
                if !budgets.iter().any(|b| masked.contains(b)) {
                    report(
                        &mut violations,
                        at,
                        "counter-budget",
                        format!("`{counter}` bumped without any of {budgets:?} in the same file"),
                    );
                }
            }
        }
    }

    // Rule 3: clock reads only in sanctioned modules.
    if !INSTANT_ALLOWLIST.contains(&rel) {
        for at in find_all(&masked, "Instant::now(", lib_end) {
            report(
                &mut violations,
                at,
                "instant-now",
                "`Instant::now()` outside govern/bench code".to_string(),
            );
        }
        for at in find_all(&masked, "SystemTime::now(", lib_end) {
            report(
                &mut violations,
                at,
                "instant-now",
                "`SystemTime::now()` outside govern/bench code".to_string(),
            );
        }
    }

    // Rule 6: metric handles come from typed name constants, and every
    // `seda_`-prefixed metric name constant is declared exactly once.
    for needle in [".counter(", ".gauge(", ".histogram("] {
        for at in find_all(&masked, needle, lib_end) {
            let arg = src[at + needle.len()..].trim_start();
            if arg.starts_with('"') {
                report(
                    &mut violations,
                    at,
                    "metric-name",
                    format!(
                        "`{}` called with a string-literal name; use a `metrics::names` constant",
                        needle.trim_start_matches('.').trim_end_matches('(')
                    ),
                );
            }
        }
    }
    let mut metric_names: Vec<&str> = Vec::new();
    for at in find_all(&masked, "const ", lib_end) {
        let Some(name) = metric_name_literal(&src[at..lib_end.min(src.len())]) else { continue };
        if metric_names.contains(&name) {
            report(
                &mut violations,
                at,
                "metric-name",
                format!("metric name \"{name}\" is declared by more than one constant"),
            );
        } else {
            metric_names.push(name);
        }
    }

    // Rule 5: public seda-core APIs return Result<_, SedaError>.
    if rel.starts_with("crates/core/src/") && !RESULT_ERROR_ALLOWLIST.contains(&rel) {
        for at in find_all(&masked, "pub fn ", lib_end) {
            let sig_end = masked[at..lib_end].find(['{', ';']).map(|n| at + n).unwrap_or(lib_end);
            let sig = &masked[at..sig_end];
            let Some(arrow) = sig.find("-> Result<") else { continue };
            let generics = &sig[arrow + "-> Result<".len()..];
            let Some(err) = result_error_type(generics) else { continue };
            if err != "SedaError" && !err.ends_with("::SedaError") {
                report(
                    &mut violations,
                    at,
                    "result-error",
                    format!("public core API returns Result<_, {err}>, expected SedaError"),
                );
            }
        }
    }

    violations
}

/// The `seda_`-prefixed string literal a `const NAME: &str = "seda_…";`
/// declaration binds, when `decl` starts at its `const` keyword (sliced from
/// the unmasked source, so the literal is intact).  Metric name constants
/// follow this exact shape; any other constant returns `None`.
fn metric_name_literal(decl: &str) -> Option<&str> {
    let stmt = &decl[..decl.find(';')?];
    let value = &stmt[stmt.find("= \"")? + 3..];
    let literal = value.split('"').next()?;
    literal.starts_with("seda_").then_some(literal)
}

/// The error type of `Result<T, E>` generic args (`generics` starts right
/// after `Result<`).  `None` when the Result elides its error type (an
/// aliased `Result<T>`, whose alias fixes the error type at its definition).
fn result_error_type(generics: &str) -> Option<String> {
    let mut depth = 0usize;
    let mut top_comma = None;
    let mut end = generics.len();
    for (i, c) in generics.char_indices() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' => {
                if depth == 0 {
                    end = i;
                    break;
                }
                depth -= 1;
            }
            ',' if depth == 0 && top_comma.is_none() => top_comma = Some(i),
            _ => {}
        }
    }
    top_comma.map(|comma| generics[comma + 1..end].trim().to_string())
}

/// Rule 4: workspace lint table + per-member inheritance.
fn lint_manifests(root: &Path) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut check = |rel: String, ok: bool, detail: &str| {
        if !ok {
            violations.push(Violation {
                file: rel,
                line: 1,
                rule: "unsafe-forbid",
                detail: detail.to_string(),
            });
        }
    };

    let root_manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap_or_default();
    check(
        "Cargo.toml".to_string(),
        root_manifest.contains("[workspace.lints.rust]")
            && root_manifest.contains("unsafe_code = \"forbid\""),
        "workspace lint table must forbid unsafe_code",
    );

    let mut manifests = vec![root.join("Cargo.toml")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let manifest = entry.path().join("Cargo.toml");
            if manifest.is_file() {
                manifests.push(manifest);
            }
        }
    }
    for manifest in manifests {
        let text = std::fs::read_to_string(&manifest).unwrap_or_default();
        let rel =
            manifest.strip_prefix(root).unwrap_or(&manifest).to_string_lossy().replace('\\', "/");
        let inherits = text.contains("[lints]") && text.contains("workspace = true");
        check(
            rel,
            inherits,
            "crate must inherit the workspace lint table (lints.workspace = true)",
        );
    }
    violations
}

/// Collects the library sources in scope: `crates/*/src/**/*.rs` plus the
/// umbrella crate's `src/`.  Benches, tests, examples, vendor stand-ins and
/// this xtask are out of scope.
fn library_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut walk_src = |dir: PathBuf| {
        let mut stack = vec![dir];
        while let Some(current) = stack.pop() {
            let Ok(entries) = std::fs::read_dir(&current) else { continue };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    files.push(path);
                }
            }
        }
    };
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let src = entry.path().join("src");
            if src.is_dir() {
                walk_src(src);
            }
        }
    }
    walk_src(root.join("src"));
    files.sort();
    files
}

/// Runs every rule over the tree at `root` and returns all violations.
fn lint_tree(root: &Path) -> Vec<Violation> {
    let mut violations = lint_manifests(root);
    for path in library_sources(root) {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        // Bin targets under src/bin are CLI surfaces, linted like library
        // code except in bench (excluded wholesale above).
        let Ok(src) = std::fs::read_to_string(&path) else { continue };
        violations.extend(lint_file(&rel, &src));
    }
    violations
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = None;
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).parent().map(Path::to_path_buf);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => root = it.next().map(PathBuf::from),
            "lint" => command = Some("lint"),
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(root) = root else {
        eprintln!("no workspace root (pass --root <dir>)");
        return ExitCode::from(2);
    };
    match command.unwrap_or("lint") {
        "lint" => {
            let violations = lint_tree(&root);
            for v in &violations {
                println!("{v}");
            }
            if violations.is_empty() {
                println!("xtask lint: clean ({} rules)", 6);
                ExitCode::SUCCESS
            } else {
                println!("xtask lint: {} violation(s)", violations.len());
                ExitCode::FAILURE
            }
        }
        _ => ExitCode::from(2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_blanks_comments_strings_and_chars_but_not_lifetimes() {
        let src = "let a = \"x.unwrap()\"; // panic!(no)\nlet b: &'static str = r#\"todo!()\"#;\nlet c = 'u';\n";
        let masked = mask_source(src);
        assert!(!masked.contains("unwrap"));
        assert!(!masked.contains("panic"));
        assert!(!masked.contains("todo"));
        assert!(masked.contains("'static"));
        assert_eq!(masked.len(), src.len());
        assert_eq!(masked.matches('\n').count(), src.matches('\n').count());
    }

    #[test]
    fn unwrap_in_library_code_is_flagged_but_test_code_is_not() {
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn g() { y.unwrap(); } }\n";
        let violations = lint_file("crates/demo/src/lib.rs", src);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "forbidden-call");
        assert_eq!(violations[0].line, 1);
    }

    #[test]
    fn expect_requires_an_invariant_message() {
        let bad = "fn f() { x.expect(\"just set\"); }\n";
        assert_eq!(lint_file("crates/demo/src/lib.rs", bad).len(), 1);
        let good = "fn f() { x.expect(\"invariant: slots are dense\"); }\n";
        assert!(lint_file("crates/demo/src/lib.rs", good).is_empty());
    }

    #[test]
    fn counter_bump_requires_budget_check() {
        let bad = "fn f(s: &mut S) { s.sorted_accesses += 1; }\n";
        let violations = lint_file("crates/demo/src/lib.rs", bad);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "counter-budget");
        let good =
            "fn f(s: &mut S, m: usize) { s.sorted_accesses += 1; check(s, max_sorted_accesses); }\n";
        assert!(lint_file("crates/demo/src/lib.rs", good).is_empty());
    }

    #[test]
    fn instant_now_is_flagged_outside_sanctioned_modules() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(lint_file("crates/demo/src/lib.rs", src)[0].rule, "instant-now");
        assert!(lint_file("crates/core/src/govern.rs", src).is_empty());
        assert!(lint_file("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn core_public_results_must_use_seda_error() {
        let bad = "pub fn f() -> Result<u32, OtherError> {\n    todo()\n}\n";
        let violations = lint_file("crates/core/src/engine.rs", bad);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "result-error");
        let good = "pub fn f() -> Result<Vec<(u32, u8)>, SedaError> {\n    g()\n}\n";
        assert!(lint_file("crates/core/src/engine.rs", good).is_empty());
        let aliased = "pub fn f() -> Result<u32> {\n    g()\n}\n";
        assert!(lint_file("crates/core/src/engine.rs", aliased).is_empty());
    }

    #[test]
    fn literal_metric_names_are_flagged_but_typed_constants_are_not() {
        let bad = "fn f(m: &MetricsRegistry) { m.counter(\"seda_adhoc_total\", \"\").inc(); }\n";
        let violations = lint_file("crates/demo/src/lib.rs", bad);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "metric-name");
        let good = "fn f(m: &MetricsRegistry) { m.counter(names::REQUESTS_TOTAL, \"\").inc(); }\n";
        assert!(lint_file("crates/demo/src/lib.rs", good).is_empty());
        // Test code is exempt, like every other source rule.
        let test_only = "#[cfg(test)]\nmod tests { fn f(m: &M) { m.gauge(\"seda_x\").set(1); } }\n";
        assert!(lint_file("crates/demo/src/lib.rs", test_only).is_empty());
    }

    #[test]
    fn duplicated_metric_name_constants_are_flagged() {
        let bad = "pub mod names {\n    pub const A: &str = \"seda_widgets_total\";\n    pub const B: &str = \"seda_widgets_total\";\n}\n";
        let violations = lint_file("crates/demo/src/lib.rs", bad);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "metric-name");
        assert_eq!(violations[0].line, 3, "the duplicate declaration is flagged, not the first");
        let good = "pub mod names {\n    pub const A: &str = \"seda_widgets_total\";\n    pub const B: &str = \"seda_gadgets_total\";\n}\n";
        assert!(lint_file("crates/demo/src/lib.rs", good).is_empty());
        // Non-metric constants never participate.
        let unrelated = "const LABELS: [&str; 2] = [\"a\", \"b\"];\nconst LABELS2: [&str; 2] = [\"a\", \"b\"];\n";
        assert!(lint_file("crates/demo/src/lib.rs", unrelated).is_empty());
    }

    #[test]
    fn result_error_type_handles_nested_generics() {
        assert_eq!(result_error_type("Vec<(u32, u8)>, SedaError>").as_deref(), Some("SedaError"));
        assert_eq!(result_error_type("u32>").as_deref(), None);
        assert_eq!(
            result_error_type("HashMap<K, V>, crate::SedaError>").as_deref(),
            Some("crate::SedaError")
        );
    }

    #[test]
    fn bad_fixture_tree_fails_and_counts_every_rule() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/bad");
        let violations = lint_tree(&root);
        assert!(!violations.is_empty());
        for rule in
            ["forbidden-call", "counter-budget", "instant-now", "unsafe-forbid", "metric-name"]
        {
            assert!(
                violations.iter().any(|v| v.rule == rule),
                "fixture must trip {rule}: {violations:?}"
            );
        }
    }
}
