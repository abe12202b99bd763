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
//! 6. **pub-surface** — every `pub` item (`fn`, `struct`, `enum`, `trait`,
//!    `type`, `const`, `static`, `mod`) declared in `crates/*/src` is used in
//!    the code of a file outside its crate's `src/` (another crate's `src/`,
//!    `crates/*/tests/`, `tests/`, `examples/`, the umbrella `src/` or
//!    `benchmark/src/`), or its doc block carries a one-line
//!    `// surface: <caller class>` reason.  A method (a `pub fn` inside an
//!    `impl` block) is used when its name appears in call or path form
//!    (`.name(`, `.name::<`, `::name`); every other item when its name
//!    appears as a whole word.  `pub(crate)` and narrower items are exempt,
//!    and so is `crates/bench`.
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

/// Governed counter → identifiers that count as its budget check.
const COUNTER_BUDGETS: &[(&str, &[&str])] = &[
    ("sorted_accesses", &["max_sorted_accesses"]),
    ("random_accesses", &["max_random_accesses"]),
    ("tuples_scored", &["max_tuples_scored"]),
    ("label_probes", &["max_label_probes"]),
];

/// Every rule, in report order; `clean (N rules)` counts this list.
const RULES: &[&str] = &[
    "forbidden-call",
    "counter-budget",
    "instant-now",
    "unsafe-forbid",
    "result-error",
    "pub-surface",
];

/// Item keywords rule 6 checks after `pub` (a `pub use` re-export is checked
/// at the item it re-exports).
const SURFACE_KINDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static", "mod"];

/// Directories whose files count as callers of a `crates/*/src` item when
/// they lie outside that item's crate `src/`.
const CALLER_DIRS: &[&str] = &["crates", "tests", "examples", "src", "benchmark/src"];

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

    // Rule 5: public seda-core APIs return Result<_, SedaError>.
    if rel.starts_with("crates/core/src/") {
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

/// A `pub` item declared in a crate's library region.
struct PubItem {
    name: String,
    line: usize,
    /// A `pub fn` declared directly inside an `impl` block.
    method: bool,
    /// The item's doc block carries a `// surface: <caller class>` line.
    has_reason: bool,
}

/// The `pub` items declared before the first `#[cfg(test)]` of one source
/// file (`pub(crate)`, `pub(super)` and `pub use` are not items here).
fn pub_items(src: &str) -> Vec<PubItem> {
    let masked = mask_source(src);
    let lib_end = lib_region_end(&masked);
    let src_lines: Vec<&str> = src.lines().collect();
    let mut items = Vec::new();
    let mut offset = 0;
    // Brace depth, and the depths of the open `impl` bodies.
    let (mut depth, mut impl_bodies, mut impl_header) = (0usize, Vec::new(), false);
    for line in masked[..lib_end].split_inclusive('\n') {
        let start = offset;
        offset += line.len();
        let in_impl = impl_bodies.last() == Some(&depth);
        let trimmed = line.trim_start();
        let header = trimmed.strip_prefix("unsafe ").unwrap_or(trimmed);
        impl_header |= header.starts_with("impl")
            && !header.as_bytes().get(4).is_some_and(|&b| is_ident_byte(b));
        for b in line.bytes() {
            if b == b'{' {
                depth += 1;
                if std::mem::take(&mut impl_header) {
                    impl_bodies.push(depth);
                }
            } else if b == b'}' {
                if impl_bodies.last() == Some(&depth) {
                    impl_bodies.pop();
                }
                depth = depth.saturating_sub(1);
            }
        }
        let Some(rest) = trimmed.strip_prefix("pub ") else { continue };
        let mut words = rest.split(|c: char| !is_ident_byte(c as u8)).filter(|w| !w.is_empty());
        let mut kind = words.next();
        // `pub const fn`, `pub unsafe fn`, `pub async fn`: the qualifier is
        // not the kind unless no `fn` follows (`pub const NAME`).
        let mut name = words.next();
        while matches!(kind, Some("const" | "unsafe" | "async" | "extern"))
            && matches!(name, Some("fn" | "unsafe" | "async" | "extern"))
        {
            kind = name;
            name = words.next();
        }
        let (Some(kind), Some(name)) = (kind, name) else { continue };
        if !SURFACE_KINDS.contains(&kind) {
            continue;
        }
        let line_no = line_of(src, start);
        let has_reason = src_lines[..line_no - 1]
            .iter()
            .rev()
            .map(|l| l.trim_start())
            .take_while(|l| l.starts_with("//") || l.starts_with("#["))
            .any(|l| l.strip_prefix("// surface:").is_some_and(|why| !why.trim().is_empty()));
        let method = in_impl && kind == "fn";
        items.push(PubItem { name: name.to_string(), line: line_no, method, has_reason });
    }
    items
}

/// The `crates/<name>/src/` prefix of a root-relative path, if it has one.
fn crate_src_of(rel: &str) -> Option<&str> {
    let rest = rel.strip_prefix("crates/")?;
    let slash = rest.find('/')?;
    rest[slash..].starts_with("/src/").then(|| &rel[.."crates/".len() + slash + "/src/".len()])
}

/// Every identifier of one file's masked code, each with whether it is ever
/// in call or path form: `.name(`, `.name::<` or `::name`.
fn words_of(src: &str) -> std::collections::HashMap<&str, bool> {
    let masked = mask_source(src);
    let bytes = masked.as_bytes();
    let mut words = std::collections::HashMap::new();
    let mut i = 0;
    while i < bytes.len() {
        if !is_ident_byte(bytes[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && is_ident_byte(bytes[i]) {
            i += 1;
        }
        let before = &masked[..start];
        let after = &masked[i..];
        let method_call = before.ends_with('.')
            && !before.ends_with("..")
            && (after.starts_with('(') || after.starts_with("::<"));
        let called = method_call || before.ends_with("::");
        *words.entry(&src[start..i]).or_insert(false) |= called;
    }
    words
}

/// Rule 6 over a tree: `files` are root-relative paths with their text, the
/// library sources and every caller file together.
fn lint_surface(files: &[(String, String)]) -> Vec<Violation> {
    // word → the crate `src/` prefixes naming it (`None` for a file in no
    // crate's `src/`), and those using it in call or path form.
    type Owners<'a> = Vec<Option<&'a str>>;
    let mut named: std::collections::HashMap<&str, (Owners, Owners)> = Default::default();
    for (rel, src) in files {
        let owner = crate_src_of(rel);
        for (word, called) in words_of(src) {
            let (naming, calling) = named.entry(word).or_default();
            for (owners, uses) in [(naming, true), (calling, called)] {
                if uses && !owners.contains(&owner) {
                    owners.push(owner);
                }
            }
        }
    }
    let mut violations = Vec::new();
    for (rel, src) in files {
        let Some(owner) = crate_src_of(rel) else { continue };
        if rel.starts_with(BENCH_PREFIX) {
            continue;
        }
        for item in pub_items(src) {
            let outside = named.get(item.name.as_str()).is_some_and(|(naming, calling)| {
                let owners = if item.method { calling } else { naming };
                owners.iter().any(|o| *o != Some(owner))
            });
            if !outside && !item.has_reason {
                let (what, used) = match item.method {
                    true => ("method", "called"),
                    false => ("item", "named"),
                };
                violations.push(Violation {
                    file: rel.clone(),
                    line: item.line,
                    rule: "pub-surface",
                    detail: format!(
                        "`pub` {what} `{}` is {used} nowhere outside `{owner}`: narrow it, or \
                         give it a `// surface: <caller class>` line",
                        item.name
                    ),
                });
            }
        }
    }
    violations
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

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: PathBuf, files: &mut Vec<PathBuf>) {
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
}

/// Collects the library sources in scope: `crates/*/src/**/*.rs` plus the
/// umbrella crate's `src/`.  Benches, tests, examples, vendor stand-ins and
/// this xtask are out of scope.
fn library_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            rust_files(entry.path().join("src"), &mut files);
        }
    }
    rust_files(root.join("src"), &mut files);
    files.sort();
    files
}

/// Root-relative path with `/` separators.
fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/")
}

/// Runs every rule over the tree at `root` and returns all violations.
fn lint_tree(root: &Path) -> Vec<Violation> {
    let mut violations = lint_manifests(root);
    for path in library_sources(root) {
        // Bin targets under src/bin are CLI surfaces, linted like library
        // code except in bench (excluded wholesale above).
        let Ok(src) = std::fs::read_to_string(&path) else { continue };
        violations.extend(lint_file(&relative(root, &path), &src));
    }
    let mut callers = Vec::new();
    for dir in CALLER_DIRS {
        rust_files(root.join(dir), &mut callers);
    }
    callers.sort();
    let files: Vec<(String, String)> = callers
        .iter()
        .filter_map(|path| Some((relative(root, path), std::fs::read_to_string(path).ok()?)))
        .collect();
    violations.extend(lint_surface(&files));
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
                println!("xtask lint: clean ({} rules)", RULES.len());
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
    fn result_error_type_handles_nested_generics() {
        assert_eq!(result_error_type("Vec<(u32, u8)>, SedaError>").as_deref(), Some("SedaError"));
        assert_eq!(result_error_type("u32>").as_deref(), None);
        assert_eq!(
            result_error_type("HashMap<K, V>, crate::SedaError>").as_deref(),
            Some("crate::SedaError")
        );
    }

    /// Rule 6 over `files`, each a `(root-relative path, text)` pair.
    fn surface(files: &[(&str, &str)]) -> Vec<Violation> {
        let files: Vec<(String, String)> =
            files.iter().map(|(rel, src)| (rel.to_string(), src.to_string())).collect();
        lint_surface(&files)
    }

    const LIB: &str = "crates/demo/src/lib.rs";

    #[test]
    fn pub_item_named_only_inside_its_crate_fails() {
        let violations = surface(&[
            (
                LIB,
                "pub fn orphan() {}
fn local() { orphan(); }
",
            ),
            (
                "crates/demo/src/other.rs",
                "fn more() { crate::orphan(); }
",
            ),
        ]);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!((violations[0].rule, violations[0].line), ("pub-surface", 1));
    }

    #[test]
    fn pub_item_named_in_outside_code_passes() {
        for outside in [
            "tests/judge.rs",
            "crates/demo/tests/unit.rs",
            "crates/other/src/lib.rs",
            "examples/a.rs",
        ] {
            let violations = surface(&[
                (
                    LIB,
                    "pub struct Called;
",
                ),
                (
                    outside,
                    "use demo::Called;
",
                ),
            ]);
            assert!(violations.is_empty(), "{outside}: {violations:?}");
        }
    }

    #[test]
    fn pub_item_named_only_in_outside_comments_or_strings_fails() {
        let violations = surface(&[
            (
                LIB,
                "pub const QUIET: u32 = 1;
",
            ),
            (
                "tests/judge.rs",
                "// QUIET
fn f() { let s = \"QUIET\"; }
",
            ),
        ]);
        assert_eq!(violations.len(), 1, "{violations:?}");
    }

    #[test]
    fn a_method_needs_an_outside_call_or_path_not_just_its_word() {
        let lib = "pub struct S;\nimpl<T> S\nwhere\n    T: Copy,\n{\n    pub fn total(&self) -> u32 {\n        0\n    }\n}\npub fn total() {}\n";
        // Named outside only as a local variable: the method fails, the free
        // function of the same name passes on the whole word.
        let local = "use demo::S;\nfn f() { let total = 1; }\n";
        let violations = surface(&[(LIB, lib), ("tests/judge.rs", local)]);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].line, 6);
        for call in ["s.total()", "s.total::<u8>()", "S::total", "s\n        .total()"] {
            let caller = format!("use demo::S;\nfn f(s: S) {{ {call}; }}\n");
            let violations = surface(&[(LIB, lib), ("tests/judge.rs", &caller)]);
            assert!(violations.is_empty(), "{call}: {violations:?}");
        }
        // A field read and a range end are no calls.
        for no_call in ["s.total", "0..total()"] {
            let caller = format!("use demo::S;\nfn f(s: S) {{ {no_call}; }}\n");
            assert_eq!(surface(&[(LIB, lib), ("tests/judge.rs", &caller)]).len(), 1, "{no_call}");
        }
    }

    #[test]
    fn surface_reason_passes() {
        let src = "/// Docs.\n// surface: type in a public signature (`f`)\n#[derive(Debug)]\npub struct Shown;\n";
        assert!(surface(&[(LIB, src)]).is_empty());
        let empty_reason = "// surface:\npub struct Hidden;\n";
        assert_eq!(surface(&[(LIB, empty_reason)]).len(), 1);
    }

    #[test]
    fn narrower_test_and_bench_items_are_exempt() {
        let src = "pub(crate) fn inner() {}\npub(super) struct Up;\n#[cfg(test)]\nmod tests { pub fn helper() {} }\n";
        assert!(surface(&[(LIB, src)]).is_empty());
        assert!(surface(&[("crates/bench/src/lib.rs", "pub fn gate() {}\n")]).is_empty());
    }

    #[test]
    fn pub_items_see_through_qualifiers_and_skip_fields_and_reexports() {
        let src = "pub const fn a() {}\npub unsafe fn b() {}\npub const C: u8 = 0;\npub struct S {\n    pub field: u8,\n}\npub use x::Y;\npub mod m;\n";
        let names: Vec<String> = pub_items(src).into_iter().map(|item| item.name).collect();
        assert_eq!(names, ["a", "b", "C", "S", "m"]);
    }

    #[test]
    fn bad_fixture_tree_fails_and_counts_every_rule() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/bad");
        let violations = lint_tree(&root);
        assert!(!violations.is_empty());
        for rule in RULES {
            assert!(
                violations.iter().any(|v| v.rule == *rule),
                "fixture must trip {rule}: {violations:?}"
            );
        }
        // `Stats::total` is named outside only as a local variable.
        assert!(
            violations.iter().any(|v| v.detail.starts_with("`pub` method `total`")),
            "fixture must trip the call-site form: {violations:?}"
        );
    }
}
