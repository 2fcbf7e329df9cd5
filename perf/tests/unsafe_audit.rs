//! `cargo xtask unsafe-audit` walks `crates/`, `src/`, `tests/` and
//! `examples/`, not `perf/`, so the benchmark keeps its own books: no
//! `unsafe` outside the rayon stand-in, and in there every site justified
//! (`SAFETY` comment or `# Safety` section right above it, or on the first
//! line inside the block) and counted against the inventory below, so that a
//! new site shows up in review as an edit to this file.

use std::path::{Path, PathBuf};

/// `unsafe` keywords per file of `perf/` (blocks, fns, impls, fn-pointer
/// types). Every other file has none.
const INVENTORY: [(&str, usize); 3] = [
    ("stubs/rayon/src/iter/collect.rs", 1),
    ("stubs/rayon/src/lib.rs", 2),
    ("stubs/rayon/src/registry.rs", 21),
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The code of a line: what precedes a `//` comment, without the contents
/// of string literals (`"unsafe"` is a variant label in the workloads).
fn code(line: &str) -> String {
    let code = line.split("//").next().unwrap_or("");
    code.split('"').step_by(2).collect::<Vec<_>>().join("\"\"")
}

fn has_unsafe_keyword(line: &str) -> bool {
    code(line)
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .any(|word| word == "unsafe")
}

fn justified(lines: &[&str], at: usize) -> bool {
    let marked = |l: &str| l.contains("SAFETY") || l.contains("# Safety");
    // The comment block and attributes directly above, or the statement the
    // site continues (`let x =` on the line before `unsafe {`).
    let above = lines[..at]
        .iter()
        .rev()
        .take_while(|l| {
            let l = l.trim_start();
            l.starts_with("//") || l.starts_with("#[") || !l.ends_with([';', '}', '{'])
        })
        .any(|l| marked(l));
    above || marked(lines[at]) || lines.get(at + 1).is_some_and(|l| marked(l))
}

#[test]
fn unsafe_stays_in_the_rayon_stand_in_and_is_justified() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(root, &mut files);
    assert!(files.len() > 20, "found only {} files", files.len());
    for path in files {
        let name = path
            .strip_prefix(root)
            .expect("under perf/")
            .to_string_lossy()
            .replace('\\', "/");
        if name == "tests/unsafe_audit.rs" {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable file");
        let lines: Vec<&str> = text.lines().collect();
        let sites: Vec<usize> = (0..lines.len())
            .filter(|&i| has_unsafe_keyword(lines[i]))
            .collect();
        let allowed = INVENTORY
            .iter()
            .find(|(file, _)| *file == name)
            .map_or(0, |(_, n)| *n);
        assert_eq!(
            sites.len(),
            allowed,
            "{name}: unsafe on lines {:?}",
            sites.iter().map(|i| i + 1).collect::<Vec<_>>()
        );
        for at in sites {
            // A type such as `unsafe fn(*const ())` needs no justification.
            if code(lines[at]).contains("unsafe fn(") {
                continue;
            }
            assert!(
                justified(&lines, at),
                "{name}:{}: unsafe without a SAFETY comment",
                at + 1
            );
        }
    }
}
