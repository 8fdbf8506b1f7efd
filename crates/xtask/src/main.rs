//! Repo maintenance tasks, invoked as `cargo run -p xtask -- <task>`.
//!
//! `lint` is the CI static gate: grep-grade policy checks that run on a
//! stable, offline toolchain in milliseconds, covering rules `clippy` has no
//! lints for:
//!
//! * `unsafe` is forbidden everywhere except the one audited module
//!   (`crates/core/src/session/executor.rs`, the work-stealing executor).
//! * `.unwrap()` / `.expect(` are denied in the *non-test* code of the
//!   verification-critical hot paths (`crates/verify`, `crates/sim`,
//!   `crates/qrf`, `crates/bounds`, and the files of other crates the
//!   verifier and the simulator delegate to) — a verifier that can panic
//!   mid-verdict is not a verifier, and the same holds for the bounds the
//!   sweep prunes with.
//! * every `#[allow(clippy::...)]` must carry a justification comment on the
//!   same or the preceding line, so suppressions stay deliberate.
//! * no encode path builds a `serde::Value`: `.serialize()` and
//!   `serde_json::to_value` are denied outside test code, so every report,
//!   frame and persisted entry streams through `Serialize::write_json`.
//! * doc-sync, both ways: every stable code the shared `Violation`
//!   (`V001-…`, in `vliw-sched`) and the pruned sweep driver (`B004-…`) define
//!   must have a row in README.md's code tables, and every code a table row
//!   names must be defined by one of them.
//!
//! The rules are textual by design (no syn, no rustc internals): they run on
//! the exact bytes committed, cannot drift with compiler versions, and their
//! failure messages point at file:line like any other lint.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The one module allowed to contain `unsafe` (relative to the repo root).
const UNSAFE_ALLOWLIST: &[&str] = &["crates/core/src/session/executor.rs"];

/// Crates whose non-test code must be panic-free.
const NO_PANIC_CRATES: &[&str] = &["crates/verify", "crates/sim", "crates/qrf", "crates/bounds"];

/// Single files outside [`NO_PANIC_CRATES`] held to the same rule: the defect
/// vocabulary, the static schedule check and the link table the verifier and
/// the simulator share.  Their crates' other files (the schedulers) are not
/// covered.
const NO_PANIC_FILES: &[&str] = &[
    "crates/sched/src/violation.rs",
    "crates/sched/src/schedule.rs",
    "crates/machine/src/machine.rs",
    "crates/machine/src/topology.rs",
];

/// Sources that define stable lint/pruning codes, and the code prefix each
/// contributes.  Every code found here must have a row in README.md's code
/// tables, and every code a row names must be found here (doc-sync: shipping
/// an undocumented code, or documenting a code nothing emits, is a lint error).
const CODE_SOURCES: &[(&str, char)] =
    &[("crates/sched/src/violation.rs", 'V'), ("crates/core/src/experiments/pruned.rs", 'B')];

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        Some(other) => {
            eprintln!("unknown task `{other}`; available tasks: lint");
            ExitCode::from(2)
        }
        None => {
            eprintln!("usage: cargo run -p xtask -- lint");
            ExitCode::from(2)
        }
    }
}

fn lint() -> ExitCode {
    let root = repo_root();
    let mut findings: Vec<String> = Vec::new();
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files);
    files.sort();

    for file in &files {
        let Ok(text) = fs::read_to_string(file) else {
            findings.push(format!("{}: unreadable", file.display()));
            continue;
        };
        let rel = file.strip_prefix(&root).unwrap_or(file);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        check_file(&rel_str, &text, &mut findings);
    }

    check_code_docs(&root, &mut findings);

    if findings.is_empty() {
        println!("xtask lint: {} files clean", files.len());
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            eprintln!("xtask lint: {f}");
        }
        eprintln!("xtask lint: {} violations", findings.len());
        ExitCode::FAILURE
    }
}

fn check_file(rel: &str, text: &str, findings: &mut Vec<String>) {
    // The linter's own source holds the deny patterns as string literals and
    // test fixtures; it is the policy, not a subject of it.
    if rel.starts_with("crates/xtask/") {
        return;
    }
    let unsafe_allowed = UNSAFE_ALLOWLIST.contains(&rel);
    let panic_denied = NO_PANIC_CRATES.iter().any(|c| rel.starts_with(&format!("{c}/src/")))
        || NO_PANIC_FILES.contains(&rel);
    let mut in_test_code = false;
    let mut prev_line: &str = "";
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        // Everything from the first `#[cfg(test)]` down is test code; the
        // repo convention keeps test modules at the bottom of each file.
        if line.contains("#[cfg(test)]") {
            in_test_code = true;
        }
        let code = strip_line_comment(line);

        if !unsafe_allowed && has_word(code, "unsafe") {
            findings.push(format!("{rel}:{lineno}: `unsafe` outside the executor allow-list"));
        }
        if panic_denied
            && !in_test_code
            && (code.contains(".unwrap()") || code.contains(".expect("))
        {
            findings.push(format!("{rel}:{lineno}: unwrap()/expect() in non-test hot-path code"));
        }
        if !in_test_code
            && !rel.contains("/tests/")
            && (code.contains(".serialize()") || code.contains("to_value("))
        {
            findings.push(format!(
                "{rel}:{lineno}: encodes through a `Value` tree; stream with `write_json`"
            ));
        }
        if code.contains("#[allow(clippy::")
            && !line.contains("//")
            && !prev_line.trim_start().starts_with("//")
        {
            findings.push(format!(
                "{rel}:{lineno}: #[allow(clippy::...)] without a justification comment"
            ));
        }
        prev_line = line;
    }
}

/// Doc-sync: every stable code a [`CODE_SOURCES`] file defines (`V001-…`,
/// `B004-…`) must appear in a README.md table row (a line starting with `|`),
/// and every backticked code of such a prefix in a row must be defined, so
/// the user-facing code tables neither fall behind the source nor outlive it.
fn check_code_docs(root: &Path, findings: &mut Vec<String>) {
    let readme = match fs::read_to_string(root.join("README.md")) {
        Ok(text) => text,
        Err(e) => {
            findings.push(format!("README.md: unreadable for the code-table doc-sync check: {e}"));
            return;
        }
    };
    let documented: Vec<(usize, &str)> =
        readme.lines().enumerate().filter(|(_, l)| l.trim_start().starts_with('|')).collect();
    let mut defined = Vec::new();
    for (rel, prefix) in CODE_SOURCES {
        let path = root.join(rel);
        let Ok(text) = fs::read_to_string(&path) else {
            findings.push(format!("{rel}: unreadable for the code-table doc-sync check"));
            continue;
        };
        let mut codes = extract_codes(&text, *prefix);
        codes.sort();
        codes.dedup();
        if codes.is_empty() {
            findings.push(format!("{rel}: defines no `{prefix}NNN-` codes; doc-sync list stale?"));
        }
        for code in codes {
            if !documented.iter().any(|(_, row)| row.contains(&code)) {
                findings.push(format!(
                    "README.md: code `{code}` ({rel}) has no row in a README code table"
                ));
            }
            defined.push(code);
        }
    }
    for (idx, row) in &documented {
        for (_, prefix) in CODE_SOURCES {
            for code in scan_codes(row, *prefix, b'`') {
                if !defined.contains(&code) {
                    findings.push(format!(
                        "README.md:{}: code `{code}` has a table row but no source defines it",
                        idx + 1
                    ));
                }
            }
        }
    }
}

/// All `"{prefix}NNN-SUFFIX"` string literals in the non-test part of `text`
/// (e.g. `V001-DEP-DISTANCE`).  Test modules may fabricate codes (`V099-…`)
/// to exercise error paths; those are not shipped and need no documentation.
fn extract_codes(text: &str, prefix: char) -> Vec<String> {
    scan_codes(text.split("#[cfg(test)]").next().unwrap_or(text), prefix, b'"')
}

/// All `{prefix}NNN-SUFFIX` codes in `text` directly preceded by `open` (a
/// string literal's quote in source, a backtick in README prose).
fn scan_codes(text: &str, prefix: char, open: u8) -> Vec<String> {
    let mut codes = Vec::new();
    let bytes = text.as_bytes();
    for (pos, _) in text.match_indices(prefix) {
        // Match: `open`, prefix, three digits, a dash, then [A-Z-]+.
        if pos == 0 || bytes[pos - 1] != open {
            continue;
        }
        let rest = &text[pos + 1..];
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        if digits.len() != 3 {
            continue;
        }
        let after = &rest[3..];
        if !after.starts_with('-') {
            continue;
        }
        let suffix: String =
            after[1..].chars().take_while(|c| c.is_ascii_uppercase() || *c == '-').collect();
        if suffix.is_empty() {
            continue;
        }
        codes.push(format!("{prefix}{digits}-{suffix}"));
    }
    codes
}

/// The code part of a line: everything before a `//` comment (string literals
/// containing `//` are rare enough in this repo that a textual rule is fine —
/// a false positive just earns the line a comment explaining itself).
fn strip_line_comment(line: &str) -> &str {
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

/// True if `word` occurs in `code` delimited by non-identifier characters.
fn has_word(code: &str, word: &str) -> bool {
    let mut rest = code;
    while let Some(pos) = rest.find(word) {
        let before_ok = pos == 0
            || !rest[..pos].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = &rest[pos + word.len()..];
        let after_ok = !after.chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        rest = &rest[pos + word.len()..];
    }
    false
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn repo_root() -> PathBuf {
    // crates/xtask/ -> repo root.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(Path::parent).map(Path::to_path_buf).unwrap_or(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsafe_is_flagged_outside_the_allowlist() {
        let mut findings = Vec::new();
        check_file("crates/sim/src/engine.rs", "unsafe { x() }\n", &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        findings.clear();
        check_file("crates/core/src/session/executor.rs", "unsafe { x() }\n", &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unsafe_in_comments_or_identifiers_is_not_flagged() {
        let mut findings = Vec::new();
        check_file("crates/sim/src/a.rs", "// unsafe is discussed here\n", &mut findings);
        check_file("crates/sim/src/a.rs", "let not_unsafe_here = 1;\n", &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unwrap_is_flagged_only_in_hot_path_non_test_code() {
        let mut findings = Vec::new();
        check_file("crates/verify/src/check.rs", "x.unwrap();\n", &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        findings.clear();
        check_file("crates/bench/src/lib.rs", "x.unwrap();\n", &mut findings);
        assert!(findings.is_empty(), "other crates may unwrap: {findings:?}");
        findings.clear();
        check_file(
            "crates/qrf/src/alloc.rs",
            "fn f() {}\n#[cfg(test)]\nmod tests { fn g() { x.unwrap(); } }\n",
            &mut findings,
        );
        assert!(findings.is_empty(), "test code may unwrap: {findings:?}");
        findings.clear();
        check_file("crates/sim/src/engine.rs", "x.unwrap_or(0);\n", &mut findings);
        assert!(findings.is_empty(), "unwrap_or is fine: {findings:?}");
        for file in NO_PANIC_FILES {
            check_file(file, "x.expect(\"y\");\n", &mut findings);
        }
        assert_eq!(findings.len(), NO_PANIC_FILES.len(), "{findings:?}");
        findings.clear();
        check_file("crates/sched/src/core.rs", "x.expect(\"y\");\n", &mut findings);
        assert!(findings.is_empty(), "the schedulers may expect: {findings:?}");
    }

    #[test]
    fn value_tree_encodes_are_flagged_only_in_non_test_code() {
        let mut findings = Vec::new();
        check_file(
            "crates/core/src/protocol.rs",
            "write_frame(w, &m.serialize())\n",
            &mut findings,
        );
        check_file("crates/bench/src/lib.rs", "let v = serde_json::to_value(&r);\n", &mut findings);
        assert_eq!(findings.len(), 2, "{findings:?}");
        findings.clear();
        check_file(
            "crates/core/src/error.rs",
            "fn f() {}\n#[cfg(test)]\nmod tests { fn g() { e.serialize(); } }\n",
            &mut findings,
        );
        check_file("crates/serve/tests/e2e.rs", "serde_json::to_value(&7u32)\n", &mut findings);
        assert!(findings.is_empty(), "tests may build values: {findings:?}");
    }

    #[test]
    fn clippy_allows_need_a_justification() {
        let mut findings = Vec::new();
        check_file("crates/a/src/lib.rs", "#[allow(clippy::too_many_arguments)]\n", &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        findings.clear();
        check_file(
            "crates/a/src/lib.rs",
            "// the signature mirrors the paper's notation\n#[allow(clippy::too_many_arguments)]\n",
            &mut findings,
        );
        assert!(findings.is_empty(), "{findings:?}");
        findings.clear();
        check_file(
            "crates/a/src/lib.rs",
            "#[allow(clippy::too_many_arguments)] // paper notation\n",
            &mut findings,
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn code_literals_are_extracted_from_source() {
        let text = r#"
            Violation::DepDistance { .. } => "V001-DEP-DISTANCE",
            // prose mentioning V9-SHORT and B001 without a dash is skipped
            "B004-STORAGE" => Ok(..),
            let not_a_literal = V002_FU_CONFLICT;
        "#;
        assert_eq!(extract_codes(text, 'V'), vec!["V001-DEP-DISTANCE"]);
        assert_eq!(extract_codes(text, 'B'), vec!["B004-STORAGE"]);
    }

    /// A temporary repo whose doc-sync sources define `V001-DEP-DISTANCE` and
    /// `B004-STORAGE`, with `readme` as its README.md.
    fn docsync_fixture(tag: &str, readme: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xtask_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("crates/sched/src")).unwrap();
        fs::create_dir_all(dir.join("crates/core/src/experiments")).unwrap();
        fs::write(
            dir.join("crates/sched/src/violation.rs"),
            "fn c() -> &'static str { \"V001-DEP-DISTANCE\" }\n",
        )
        .unwrap();
        fs::write(
            dir.join("crates/core/src/experiments/pruned.rs"),
            "fn c() -> &'static str { \"B004-STORAGE\" }\n",
        )
        .unwrap();
        fs::write(dir.join("README.md"), readme).unwrap();
        dir
    }

    #[test]
    fn undocumented_codes_are_flagged() {
        let dir = docsync_fixture("docsync", "| `V001-DEP-DISTANCE` | dependency distance |\n");
        let mut findings = Vec::new();
        check_code_docs(&dir, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("B004-STORAGE"), "{findings:?}");
        // Documenting the code clears the finding.
        fs::write(
            dir.join("README.md"),
            "| `V001-DEP-DISTANCE` | dep |\n| `B004-STORAGE` | pigeonhole |\n",
        )
        .unwrap();
        findings.clear();
        check_code_docs(&dir, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn documented_codes_no_source_defines_are_flagged() {
        // A table row for a code no source defines is flagged with its line;
        // the same kind of code in prose outside a table is not.
        let dir = docsync_fixture(
            "docsync_reverse",
            "| `V001-DEP-DISTANCE` | dep |\n| `B004-STORAGE` | pigeonhole |\n\
             | `B001-RESMII` | resource MII |\nProse about `B002-RECMII`.\n",
        );
        let mut findings = Vec::new();
        check_code_docs(&dir, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].starts_with("README.md:3:"), "{findings:?}");
        assert!(findings[0].contains("B001-RESMII"), "{findings:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_repo_is_currently_clean() {
        // The gate must hold on the tree it ships in.
        let root = repo_root();
        let mut files = Vec::new();
        collect_rs_files(&root.join("crates"), &mut files);
        assert!(!files.is_empty());
        let mut findings = Vec::new();
        for file in &files {
            let text = std::fs::read_to_string(file).unwrap();
            let rel = file.strip_prefix(&root).unwrap_or(file);
            check_file(&rel.to_string_lossy().replace('\\', "/"), &text, &mut findings);
        }
        check_code_docs(&root, &mut findings);
        assert!(findings.is_empty(), "{findings:#?}");
    }
}
