//! Repo automation tasks (`cargo xtask <task>`).
//!
//! The one task so far is `unsafe-audit`, the soundness gate wired into
//! CI: every `unsafe` block, `unsafe fn`, and `unsafe impl`/`trait` in the
//! workspace must carry an adjacent justification — a `// SAFETY:` comment
//! or a `# Safety` doc section — and the generated unsafe-inventory table
//! in `DESIGN.md` must be up to date. The total may not exceed
//! `UNSAFE_CEILING`.
//!
//! ```text
//! cargo xtask unsafe-audit            # check (CI mode): exit 1 on any
//!                                     # undocumented site or stale table
//! cargo xtask unsafe-audit --write    # regenerate the DESIGN.md table
//! ```
//!
//! The scanner is deliberately dependency-free (no `syn`): a line-level
//! lexer that blanks strings and comments, then classifies each `unsafe`
//! keyword by its following token. Heuristic, but tuned so that every
//! legitimate documentation style in this repo is recognized; if it flags
//! a false positive, the fix — writing down why the block is sound — is
//! exactly the behaviour the gate exists to force.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The most `unsafe` sites the workspace may hold. The audit fails above
/// it, so the count cannot grow silently: a change that must add a site
/// raises this number in the same diff, and one that removes sites lowers
/// it to the new total.
const UNSAFE_CEILING: usize = 48;

const MARKER_BEGIN: &str = "<!-- unsafe-inventory:begin -->";
const MARKER_END: &str = "<!-- unsafe-inventory:end -->";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("unsafe-audit") => {
            let write = args.iter().any(|a| a == "--write");
            match unsafe_audit(write) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("{msg}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!("usage: cargo xtask unsafe-audit [--write]");
            ExitCode::FAILURE
        }
    }
}

fn unsafe_audit(write: bool) -> Result<(), String> {
    let root = workspace_root()?;
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        collect_rs_files(&root.join(dir), &mut files);
    }
    files.sort();

    let mut inventory: Vec<(String, Vec<UnsafeSite>)> = Vec::new();
    let mut undocumented: Vec<String> = Vec::new();
    for path in &files {
        let source = std::fs::read_to_string(path)
            .map_err(|e| format!("unsafe-audit: reading {}: {e}", path.display()))?;
        let sites = scan_source(&source);
        if sites.is_empty() {
            continue;
        }
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .display()
            .to_string()
            .replace('\\', "/");
        for site in &sites {
            if !site.documented {
                undocumented.push(format!("{rel}:{}: undocumented {}", site.line, site.kind));
            }
        }
        inventory.push((rel, sites));
    }

    let table = render_table(&inventory);
    let design_path = root.join("DESIGN.md");
    let design = std::fs::read_to_string(&design_path)
        .map_err(|e| format!("unsafe-audit: reading DESIGN.md: {e}"))?;
    let updated = splice_between_markers(&design, &table)?;

    if write {
        if updated != design {
            std::fs::write(&design_path, &updated)
                .map_err(|e| format!("unsafe-audit: writing DESIGN.md: {e}"))?;
            println!("unsafe-audit: DESIGN.md inventory regenerated");
        } else {
            println!("unsafe-audit: DESIGN.md inventory already current");
        }
    } else if updated != design {
        return Err("unsafe-audit: DESIGN.md unsafe-inventory table is stale; \
             run `cargo xtask unsafe-audit --write`"
            .to_string());
    }

    let total: usize = inventory.iter().map(|(_, s)| s.len()).sum();
    check_ceiling(total, UNSAFE_CEILING)?;
    if undocumented.is_empty() {
        println!(
            "unsafe-audit: {total} unsafe sites across {} files, all documented",
            inventory.len()
        );
        Ok(())
    } else {
        let mut msg = format!(
            "unsafe-audit: {} of {total} unsafe sites lack an adjacent \
             `// SAFETY:` comment or `# Safety` doc section:\n",
            undocumented.len()
        );
        for u in &undocumented {
            let _ = writeln!(msg, "  {u}");
        }
        Err(msg)
    }
}

/// Fails when `total` sites exceed `ceiling`; below it, says to lower it.
fn check_ceiling(total: usize, ceiling: usize) -> Result<(), String> {
    if total > ceiling {
        return Err(format!(
            "unsafe-audit: {total} unsafe sites exceed the ceiling of {ceiling} \
             (`UNSAFE_CEILING` in crates/xtask/src/main.rs): route the new site \
             through an existing safe abstraction, or raise the ceiling in the \
             same change; when sites go, lower it"
        ));
    }
    if total < ceiling {
        println!(
            "unsafe-audit: {total} sites, under the ceiling of {ceiling}: \
             lower `UNSAFE_CEILING` in crates/xtask/src/main.rs to {total}"
        );
    }
    Ok(())
}

/// Walks up from the current directory to the manifest declaring
/// `[workspace]`.
fn workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("unsafe-audit: cwd: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Ok(dir);
                }
            }
        }
        if !dir.pop() {
            return Err("unsafe-audit: no workspace root found above cwd".to_string());
        }
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                collect_rs_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnsafeKind {
    Block,
    Fn,
    Impl,
    Trait,
}

impl std::fmt::Display for UnsafeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            UnsafeKind::Block => "unsafe block",
            UnsafeKind::Fn => "unsafe fn",
            UnsafeKind::Impl => "unsafe impl",
            UnsafeKind::Trait => "unsafe trait",
        })
    }
}

#[derive(Debug)]
struct UnsafeSite {
    /// 1-based line number of the `unsafe` keyword.
    line: usize,
    kind: UnsafeKind,
    documented: bool,
}

/// Blanks string literals, char literals, and comments with spaces so the
/// keyword scan never matches inside them. Line structure is preserved.
fn blank_noncode(source: &str) -> String {
    let bytes = source.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'r' if matches!(bytes.get(i + 1), Some(&b'"') | Some(&b'#')) => {
                // Raw string r"...", r#"..."#, ...
                let mut j = i + 1;
                let mut hashes = 0;
                while bytes.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                if bytes.get(j) == Some(&b'"') {
                    out.extend(std::iter::repeat_n(b' ', hashes + 2));
                    i = j + 1;
                    loop {
                        if i >= bytes.len() {
                            break;
                        }
                        if bytes[i] == b'"'
                            && bytes[i + 1..].iter().take(hashes).all(|&b| b == b'#')
                        {
                            out.extend(std::iter::repeat_n(b' ', hashes + 1));
                            i += 1 + hashes;
                            break;
                        }
                        out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                } else {
                    out.push(bytes[i]);
                    i += 1;
                }
            }
            b'"' => {
                out.push(b' ');
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == b'\\' {
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if bytes[i] == b'"' {
                        out.push(b' ');
                        i += 1;
                        break;
                    } else {
                        out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'\'' => {
                // Char literal vs lifetime: 'x' or '\n' is a literal;
                // 'a (no closing quote right after) is a lifetime.
                if bytes.get(i + 1) == Some(&b'\\') {
                    out.extend_from_slice(b"    ");
                    i += 3; // '\x — skip to (at least) the closing quote
                    while i < bytes.len() && bytes[i] != b'\'' {
                        out.push(b' ');
                        i += 1;
                    }
                    if i < bytes.len() {
                        out.push(b' ');
                        i += 1;
                    }
                } else if bytes.get(i + 2) == Some(&b'\'') {
                    out.extend_from_slice(b"   ");
                    i += 3;
                } else {
                    out.push(bytes[i]);
                    i += 1;
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Finds every `unsafe` keyword in `source`, classifies it, and decides
/// whether it is documented.
fn scan_source(source: &str) -> Vec<UnsafeSite> {
    let code = blank_noncode(source);
    let raw_lines: Vec<&str> = source.lines().collect();
    let code_bytes = code.as_bytes();
    let mut sites = Vec::new();
    let mut search = 0;
    while let Some(pos) = code[search..].find("unsafe") {
        let at = search + pos;
        search = at + "unsafe".len();
        // Word boundaries: reject `unsafe_op_in_unsafe_fn`, `Unsafe`, etc.
        if at > 0 && is_ident_byte(code_bytes[at - 1]) {
            continue;
        }
        if code_bytes
            .get(at + "unsafe".len())
            .is_some_and(|&b| is_ident_byte(b))
        {
            continue;
        }
        let line = code[..at].bytes().filter(|&b| b == b'\n').count() + 1;
        let after = next_token_after(&code, at + "unsafe".len());
        let kind = match after.as_deref() {
            Some("fn") | Some("extern") => UnsafeKind::Fn,
            Some("impl") => UnsafeKind::Impl,
            Some("trait") => UnsafeKind::Trait,
            _ => UnsafeKind::Block,
        };
        let documented = is_documented(&raw_lines, line, kind);
        sites.push(UnsafeSite {
            line,
            kind,
            documented,
        });
    }
    sites
}

/// The next code token after byte offset `from` (crossing newlines).
fn next_token_after(code: &str, from: usize) -> Option<String> {
    let rest = code[from..].trim_start();
    if rest.is_empty() {
        return None;
    }
    let bytes = rest.as_bytes();
    if !is_ident_byte(bytes[0]) {
        return Some((bytes[0] as char).to_string());
    }
    let end = bytes
        .iter()
        .position(|&b| !is_ident_byte(b))
        .unwrap_or(bytes.len());
    Some(rest[..end].to_string())
}

/// A site is documented when a `SAFETY` marker or `# Safety` doc heading
/// appears nearby: on the site's own line, within the three physical lines
/// above it, on the first line inside an `unsafe {` block, or anywhere in
/// the contiguous run of comments/attributes immediately above (doc
/// blocks on `unsafe fn` declarations).
fn is_documented(raw_lines: &[&str], line: usize, kind: UnsafeKind) -> bool {
    let idx = line - 1; // 0-based
    let has_marker = |l: &str| l.contains("SAFETY") || l.contains("# Safety");

    // Same line and up to 3 physical lines above (covers `let x =` /
    // multi-line signatures between the comment and the keyword).
    let lo = idx.saturating_sub(3);
    if raw_lines[lo..=idx.min(raw_lines.len() - 1)]
        .iter()
        .any(|l| has_marker(l))
    {
        return true;
    }

    // First line inside the block: `unsafe {` at end of line with the
    // justification as the block's opening comment.
    if kind == UnsafeKind::Block {
        if let Some(next) = raw_lines.get(idx + 1) {
            if has_marker(next) {
                return true;
            }
        }
    }

    // Contiguous doc/attribute/comment run above the declaration.
    let mut i = idx;
    let mut budget = 40;
    while i > 0 && budget > 0 {
        i -= 1;
        budget -= 1;
        let t = raw_lines[i].trim();
        if t.starts_with("//") || t.starts_with("#[") || t.starts_with("#!") || t.is_empty() {
            if has_marker(t) {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

fn render_table(inventory: &[(String, Vec<UnsafeSite>)]) -> String {
    let mut out = String::new();
    out.push_str(
        "| File | blocks | fns | impls/traits | documented |\n\
         |---|---:|---:|---:|---:|\n",
    );
    let mut totals = [0usize; 4]; // blocks, fns, impls+traits, documented
    let mut total_sites = 0usize;
    for (file, sites) in inventory {
        let blocks = sites.iter().filter(|s| s.kind == UnsafeKind::Block).count();
        let fns = sites.iter().filter(|s| s.kind == UnsafeKind::Fn).count();
        let impls = sites
            .iter()
            .filter(|s| matches!(s.kind, UnsafeKind::Impl | UnsafeKind::Trait))
            .count();
        let documented = sites.iter().filter(|s| s.documented).count();
        totals[0] += blocks;
        totals[1] += fns;
        totals[2] += impls;
        totals[3] += documented;
        total_sites += sites.len();
        let _ = writeln!(
            out,
            "| `{file}` | {blocks} | {fns} | {impls} | {documented}/{} |",
            sites.len()
        );
    }
    let _ = writeln!(
        out,
        "| **Total** | **{}** | **{}** | **{}** | **{}/{total_sites}** |",
        totals[0], totals[1], totals[2], totals[3]
    );
    out
}

fn splice_between_markers(design: &str, table: &str) -> Result<String, String> {
    let begin = design
        .find(MARKER_BEGIN)
        .ok_or_else(|| format!("unsafe-audit: DESIGN.md is missing the `{MARKER_BEGIN}` marker"))?;
    let end = design
        .find(MARKER_END)
        .ok_or_else(|| format!("unsafe-audit: DESIGN.md is missing the `{MARKER_END}` marker"))?;
    if end < begin {
        return Err("unsafe-audit: DESIGN.md inventory markers are out of order".to_string());
    }
    let mut out = String::with_capacity(design.len() + table.len());
    out.push_str(&design[..begin + MARKER_BEGIN.len()]);
    out.push('\n');
    out.push_str(table);
    out.push_str(&design[end..]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_block_fn_impl_trait() {
        let src = "\
fn f() {
    // SAFETY: fine.
    unsafe { g() }
}
/// # Safety
/// contract
unsafe fn g() {}
// SAFETY: no shared state.
unsafe impl Send for X {}
struct Y;
struct Z;
unsafe trait T {}
";
        let sites = scan_source(src);
        let kinds: Vec<UnsafeKind> = sites.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                UnsafeKind::Block,
                UnsafeKind::Fn,
                UnsafeKind::Impl,
                UnsafeKind::Trait
            ]
        );
        assert!(sites[0].documented);
        assert!(sites[1].documented);
        assert!(sites[2].documented);
        assert!(!sites[3].documented, "trait without any marker");
    }

    #[test]
    fn undocumented_block_is_flagged() {
        let src = "fn f() {\n    unsafe { g() }\n}\n";
        let sites = scan_source(src);
        assert_eq!(sites.len(), 1);
        assert!(!sites[0].documented);
    }

    #[test]
    fn safety_comment_inside_block_counts() {
        let src =
            "fn f() {\n    let x = unsafe {\n        // SAFETY: ok.\n        g()\n    };\n}\n";
        let sites = scan_source(src);
        assert_eq!(sites.len(), 1);
        assert!(sites[0].documented);
    }

    #[test]
    fn strings_and_comments_do_not_match() {
        let src = "fn f() {\n    let s = \"unsafe { }\";\n    // unsafe { in a comment }\n}\n";
        assert!(scan_source(src).is_empty());
    }

    #[test]
    fn lint_name_is_not_a_keyword_hit() {
        let src = "#![deny(unsafe_op_in_unsafe_fn)]\nfn main() {}\n";
        assert!(scan_source(src).is_empty());
    }

    #[test]
    fn doc_block_above_attributes_counts() {
        let src = "\
/// Does scary things.
///
/// # Safety
/// Caller must hold the lock.
#[inline]
#[allow(clippy::mut_from_ref)]
pub unsafe fn scary() {}
";
        let sites = scan_source(src);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].kind, UnsafeKind::Fn);
        assert!(sites[0].documented);
    }

    #[test]
    fn lifetimes_do_not_break_the_lexer() {
        let src =
            "fn f<'a>(x: &'a str) -> &'a str {\n    // SAFETY: no-op.\n    unsafe { g(x) }\n}\n";
        let sites = scan_source(src);
        assert_eq!(sites.len(), 1);
        assert!(sites[0].documented);
    }

    #[test]
    fn char_literals_are_blanked() {
        let src = "fn f() { let q = '\"'; let u = 'u'; unsafe { g() } }\n";
        let sites = scan_source(src);
        assert_eq!(sites.len(), 1, "the quote char must not open a string");
    }

    #[test]
    fn the_count_may_reach_the_ceiling_but_not_pass_it() {
        assert!(check_ceiling(74, 75).is_ok());
        assert!(check_ceiling(75, 75).is_ok());
        let err = check_ceiling(76, 75).expect_err("76 sites exceed 75");
        assert!(
            err.contains("76 unsafe sites exceed the ceiling of 75"),
            "{err}"
        );
        assert!(err.contains("lower it"), "{err}");
    }

    #[test]
    fn splice_replaces_only_marked_region() {
        let design = format!("# Doc\n\n{MARKER_BEGIN}\nold\n{MARKER_END}\n\ntail\n");
        let out = splice_between_markers(&design, "new\n").unwrap();
        assert!(out.contains("new"));
        assert!(!out.contains("old"));
        assert!(out.starts_with("# Doc"));
        assert!(out.ends_with("tail\n"));
    }

    #[test]
    fn missing_markers_error() {
        assert!(splice_between_markers("no markers here", "t").is_err());
    }

    #[test]
    fn multiline_signature_fn_with_doc_safety() {
        let src = "\
/// Frees the thing.
///
/// # Safety
/// Pointer must be live.
unsafe fn free_it<'a>(
    ptr: *mut u8,
    len: usize,
) {
    // SAFETY: forwarded.
    unsafe { drop_raw(ptr, len) }
}
";
        let sites = scan_source(src);
        assert_eq!(sites.len(), 2);
        assert!(sites.iter().all(|s| s.documented));
    }
}

/// Every quoted section name that a document or a comment cites in
/// EXPERIMENTS.md must name one of its headings.
#[cfg(test)]
mod citations {
    use std::path::{Path, PathBuf};

    const TARGET: &str = "EXPERIMENTS.md";

    /// The quoted section names cited in `text`, its lines joined without
    /// their comment markers (`//!`, `///`, `#`) so a wrapped citation
    /// reads whole: the text in the first pair of quotes after the file
    /// name, when one to eight connecting characters (`, `, `'s `, ` (`,
    /// ` gains `) stand between them. A Rust string's `\"` counts as a
    /// quote; the file name as a string of its own cites nothing.
    fn cited_sections(text: &str) -> Vec<String> {
        let prose: Vec<&str> = text
            .lines()
            .map(|l| l.trim_start().trim_start_matches(['/', '!', '#']).trim())
            .collect();
        let prose = prose.join(" ");
        let mut out = Vec::new();
        for (at, _) in prose.match_indices(TARGET) {
            let rest = &prose[at + TARGET.len()..];
            let Some(open) = rest.find('"') else { continue };
            let gap = &rest[..open];
            if gap.is_empty() || gap.len() > 8 || gap.contains(['.', ')', ';', ':']) {
                continue;
            }
            let quoted = &rest[open + 1..];
            let Some(close) = quoted.find('"') else {
                continue;
            };
            out.push(quoted[..close].trim_end_matches('\\').trim().to_string());
        }
        out
    }

    /// A citation resolves to a heading outside code fences, or to its
    /// start up to a word boundary ("Perf gating methodology" cites
    /// "Perf gating methodology (`rpb gate`)").
    fn resolves(cited: &str, markdown: &str) -> bool {
        let mut fenced = false;
        markdown
            .lines()
            .filter(|l| {
                fenced ^= l.starts_with("```");
                !fenced && l.starts_with('#')
            })
            .map(|l| l.trim_start_matches('#').trim())
            .filter_map(|h| h.strip_prefix(cited))
            .any(|tail| !tail.starts_with(char::is_alphanumeric))
    }

    #[test]
    fn citations_are_found_in_every_connecting_form_and_resolve_by_prefix() {
        let text = format!(
            "See {TARGET} \"A b\", {TARGET}, \"C\" and {TARGET}'s \"D\";\n\
             /// {TARGET} (\"E\n/// f\"), {TARGET} gains \"G\" but {TARGET}. \"H\"\n\
             x {TARGET}, \\\"I\\\"). let p = \"{TARGET}\"; \"J\""
        );
        assert_eq!(cited_sections(&text), ["A b", "C", "D", "E f", "G", "I"]);
        let md = "# Top\n## Perf gating methodology (`rpb gate`)\n### MultiQueue: a run\n\
                  ```bash\n# Raw-speed\n```\n";
        let cited = ["Perf gating methodology", "MultiQueue", "MultiQueue: a run"];
        assert!(cited.iter().all(|c| resolves(c, md)));
        assert!(!resolves("Perf gating method", md) && !resolves("Raw-speed", md));
    }

    #[test]
    fn every_experiments_citation_names_a_heading() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let read = |p: &Path| std::fs::read_to_string(p).expect("a scanned file reads");
        let experiments = read(&root.join(TARGET));
        let docs = "README.md DESIGN.md ROADMAP.md CHANGES.md baselines/README.md";
        let docs = docs.split(' ').chain([".github/workflows/ci.yml"]);
        let mut files: Vec<PathBuf> = docs.map(|f| root.join(f)).collect();
        super::collect_rs_files(&root.join("crates"), &mut files);
        let cited: Vec<(PathBuf, String)> = files
            .iter()
            .flat_map(|p| cited_sections(&read(p)).into_iter().map(|c| (p.clone(), c)))
            .collect();
        assert!(cited.len() > 10, "a blind scan: {} citations", cited.len());
        let broken: Vec<String> = cited
            .iter()
            .filter(|(_, c)| !resolves(c, &experiments))
            .map(|(p, c)| format!("{}: \"{c}\"", p.strip_prefix(&root).unwrap_or(p).display()))
            .collect();
        assert!(broken.is_empty(), "unresolved:\n  {}", broken.join("\n  "));
    }
}
