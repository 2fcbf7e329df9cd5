//! Graph serialization: PBBS adjacency format and DIMACS-style edge
//! lists, so generated inputs can be saved, inspected, and re-loaded
//! (PBBS workflows are file-driven; RPB kept that shape).

use std::fmt::{self, Write as _};
use std::path::Path;

use crate::csr::{Graph, WeightedGraph};

/// A parse (or read) failure, pinpointing the offending source line when
/// one is attributable.
///
/// Both text parsers reject malformed input — truncated lines, trailing
/// garbage, out-of-range vertex ids, non-monotone offsets — with the
/// 1-indexed line number of the first offending line, so corrupted input
/// files are diagnosable instead of being silently misread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphParseError {
    /// 1-indexed line number in the source text, when attributable (I/O
    /// errors and whole-input failures such as truncation have none).
    pub line: Option<usize>,
    /// What was wrong with it.
    pub reason: String,
}

impl GraphParseError {
    fn at(line: usize, reason: impl Into<String>) -> Self {
        Self {
            line: Some(line),
            reason: reason.into(),
        }
    }

    fn whole(reason: impl Into<String>) -> Self {
        Self {
            line: None,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for GraphParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "line {line}: {}", self.reason),
            None => f.write_str(&self.reason),
        }
    }
}

impl std::error::Error for GraphParseError {}

/// Serializes to the PBBS `AdjacencyGraph` text format:
/// header, `n`, `m`, then `n` offsets and `m` targets, one per line.
pub fn to_adjacency_string(g: &Graph) -> String {
    let mut out = String::with_capacity(16 * (g.num_vertices() + g.num_arcs()));
    out.push_str("AdjacencyGraph\n");
    let _ = writeln!(out, "{}", g.num_vertices());
    let _ = writeln!(out, "{}", g.num_arcs());
    for v in 0..g.num_vertices() {
        let _ = writeln!(out, "{}", g.offsets[v]);
    }
    for &t in &g.adj {
        let _ = writeln!(out, "{t}");
    }
    out
}

/// Parses the PBBS `AdjacencyGraph` text format.
///
/// # Errors
/// Returns a [`GraphParseError`] naming the first offending line for a
/// bad header, an unparsable number, an out-of-range target, a
/// non-monotone offset, or trailing garbage; truncated input is a
/// whole-input error (no single line to blame).
pub fn from_adjacency_string(s: &str) -> Result<Graph, GraphParseError> {
    // Blank lines are skipped but keep their place in the numbering, so
    // errors point at real source lines.
    let mut lines = s
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty());
    let (hline, header) = lines
        .next()
        .ok_or_else(|| GraphParseError::whole("empty input"))?;
    if header != "AdjacencyGraph" {
        return Err(GraphParseError::at(
            hline,
            format!("bad header {header:?} (want \"AdjacencyGraph\")"),
        ));
    }
    let mut next_num = |what: &str| -> Result<(usize, usize), GraphParseError> {
        let (ln, l) = lines
            .next()
            .ok_or_else(|| GraphParseError::whole(format!("truncated input: missing {what}")))?;
        let v = l
            .parse()
            .map_err(|e| GraphParseError::at(ln, format!("bad {what} {l:?}: {e}")))?;
        Ok((ln, v))
    };
    let (_, n) = next_num("vertex count")?;
    let (_, m) = next_num("arc count")?;
    let mut offsets = Vec::with_capacity(n + 1);
    let mut prev = 0usize;
    for i in 0..n {
        let (ln, off) = next_num(&format!("offset {i}"))?;
        if off < prev {
            return Err(GraphParseError::at(
                ln,
                format!("offset {off} decreases below the previous offset {prev}"),
            ));
        }
        if off > m {
            return Err(GraphParseError::at(
                ln,
                format!("offset {off} exceeds the arc count {m}"),
            ));
        }
        prev = off;
        offsets.push(off);
    }
    offsets.push(m);
    let mut adj = Vec::with_capacity(m);
    for i in 0..m {
        let (ln, t) = next_num(&format!("target {i}"))?;
        if t >= n {
            return Err(GraphParseError::at(
                ln,
                format!("target {t} out of range for {n} vertices"),
            ));
        }
        adj.push(t as u32);
    }
    if let Some((ln, extra)) = lines.next() {
        return Err(GraphParseError::at(
            ln,
            format!("trailing garbage {extra:?} after the {m} declared targets"),
        ));
    }
    Ok(Graph { offsets, adj })
}

/// Serializes a weighted graph as DIMACS `.gr` (`p sp n m` + `a u v w`
/// lines, 1-indexed, one line per stored arc).
pub fn to_dimacs_string(g: &WeightedGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "p sp {} {}", g.num_vertices(), g.num_arcs());
    for u in 0..g.num_vertices() {
        for (v, w) in g.neighbors(u) {
            let _ = writeln!(out, "a {} {} {}", u + 1, v + 1, w);
        }
    }
    out
}

/// Parses DIMACS `.gr` into a weighted graph (directed arcs as listed).
///
/// # Errors
/// Returns a [`GraphParseError`] naming the first offending line for a
/// truncated `p`/`a` line, trailing fields, an arc before the `p` line, a
/// duplicate `p` line, a 0 or out-of-range vertex id, a weight or vertex
/// count outside the `u32` space, or more arcs than the `p` line
/// declares; too few arcs is a whole-input error.
pub fn from_dimacs_string(s: &str) -> Result<WeightedGraph, GraphParseError> {
    let mut header: Option<(usize, usize)> = None; // (vertices, declared arcs)
    let mut edges: Vec<(u32, u32, u32)> = Vec::new();
    for (idx, raw) in s.lines().enumerate() {
        let ln = idx + 1;
        let mut parts = raw.split_whitespace();
        match parts.next() {
            None | Some("c") => continue,
            Some("p") => {
                if header.is_some() {
                    return Err(GraphParseError::at(ln, "duplicate p line"));
                }
                let tag = parts.next().ok_or_else(|| {
                    GraphParseError::at(ln, "truncated p line: missing problem tag")
                })?;
                if tag != "sp" {
                    return Err(GraphParseError::at(
                        ln,
                        format!("unsupported problem tag {tag:?} (want \"sp\")"),
                    ));
                }
                let mut field = |what: &str| -> Result<usize, GraphParseError> {
                    let f = parts.next().ok_or_else(|| {
                        GraphParseError::at(ln, format!("truncated p line: missing {what}"))
                    })?;
                    f.parse()
                        .map_err(|e| GraphParseError::at(ln, format!("bad {what} {f:?}: {e}")))
                };
                let n = field("vertex count")?;
                let m = field("arc count")?;
                if let Some(extra) = parts.next() {
                    return Err(GraphParseError::at(
                        ln,
                        format!("trailing garbage {extra:?} on p line"),
                    ));
                }
                if n > u32::MAX as usize + 1 {
                    return Err(GraphParseError::at(
                        ln,
                        format!("vertex count {n} exceeds the u32 id space"),
                    ));
                }
                header = Some((n, m));
            }
            Some("a") => {
                let (n, m) =
                    header.ok_or_else(|| GraphParseError::at(ln, "arc line before the p line"))?;
                if edges.len() == m {
                    return Err(GraphParseError::at(
                        ln,
                        format!("more arcs than the {m} declared on the p line"),
                    ));
                }
                let mut field = |what: &str| -> Result<u64, GraphParseError> {
                    let f = parts.next().ok_or_else(|| {
                        GraphParseError::at(ln, format!("truncated a line: missing {what}"))
                    })?;
                    f.parse()
                        .map_err(|e| GraphParseError::at(ln, format!("bad {what} {f:?}: {e}")))
                };
                let u = field("tail")?;
                let v = field("head")?;
                let w = field("weight")?;
                if let Some(extra) = parts.next() {
                    return Err(GraphParseError::at(
                        ln,
                        format!("trailing garbage {extra:?} on a line"),
                    ));
                }
                if u == 0 || v == 0 {
                    return Err(GraphParseError::at(
                        ln,
                        "DIMACS vertex ids are 1-indexed; found 0",
                    ));
                }
                if u > n as u64 || v > n as u64 {
                    return Err(GraphParseError::at(
                        ln,
                        format!("arc ({u},{v}) out of range for {n} vertices"),
                    ));
                }
                if w > u64::from(u32::MAX) {
                    return Err(GraphParseError::at(
                        ln,
                        format!("weight {w} exceeds the u32 weight space"),
                    ));
                }
                // u, v ∈ 1..=n ≤ 2^32, so the decrements fit in u32.
                edges.push(((u - 1) as u32, (v - 1) as u32, w as u32));
            }
            Some(other) => {
                return Err(GraphParseError::at(ln, format!("unknown tag {other:?}")));
            }
        }
    }
    let (n, m) = header.ok_or_else(|| GraphParseError::whole("missing p line"))?;
    if edges.len() != m {
        return Err(GraphParseError::whole(format!(
            "p line declares {m} arcs but {} were listed",
            edges.len()
        )));
    }
    Ok(WeightedGraph::from_edges(n, &edges))
}

/// Writes a graph to a file in PBBS adjacency format.
pub fn write_adjacency(g: &Graph, path: &Path) -> std::io::Result<()> {
    std::fs::write(path, to_adjacency_string(g))
}

/// Reads a graph from a PBBS adjacency file.
pub fn read_adjacency(path: &Path) -> Result<Graph, GraphParseError> {
    let s = std::fs::read_to_string(path)
        .map_err(|e| GraphParseError::whole(format!("{}: {e}", path.display())))?;
    from_adjacency_string(&s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{add_weights, uniform_random};

    #[test]
    fn adjacency_round_trip() {
        let g = uniform_random(100, 300, 1);
        let s = to_adjacency_string(&g);
        let g2 = from_adjacency_string(&s).expect("parse");
        assert_eq!(g, g2);
    }

    #[test]
    fn adjacency_rejects_bad_header() {
        assert!(from_adjacency_string("WeightedAdjacencyGraph\n1\n0\n0\n").is_err());
    }

    #[test]
    fn adjacency_rejects_out_of_range_target() {
        let s = "AdjacencyGraph\n2\n1\n0\n1\n5\n";
        let err = from_adjacency_string(s).unwrap_err();
        assert_eq!(err.line, Some(6));
        assert!(err.reason.contains("out of range"), "{err}");
    }

    #[test]
    fn adjacency_errors_point_at_source_lines_past_blanks() {
        // Blank lines are skipped but keep their place in the numbering:
        // the bad target `5` sits on source line 8.
        let s = "AdjacencyGraph\n\n2\n1\n0\n1\n\n5\n";
        let err = from_adjacency_string(s).unwrap_err();
        assert_eq!(err.line, Some(8));
        assert!(err.to_string().starts_with("line 8:"), "{err}");
    }

    #[test]
    fn adjacency_rejects_nonmonotone_offsets_at_the_line() {
        let s = "AdjacencyGraph\n2\n2\n2\n1\n0\n1\n";
        let err = from_adjacency_string(s).unwrap_err();
        assert_eq!(err.line, Some(5));
        assert!(err.reason.contains("decreases"), "{err}");
    }

    #[test]
    fn adjacency_rejects_offset_past_arc_count() {
        let s = "AdjacencyGraph\n2\n1\n0\n9\n0\n";
        let err = from_adjacency_string(s).unwrap_err();
        assert_eq!(err.line, Some(5));
        assert!(err.reason.contains("exceeds"), "{err}");
    }

    #[test]
    fn adjacency_rejects_trailing_garbage() {
        let s = "AdjacencyGraph\n2\n1\n0\n1\n0\nextra\n";
        let err = from_adjacency_string(s).unwrap_err();
        assert_eq!(err.line, Some(7));
        assert!(err.reason.contains("trailing garbage"), "{err}");
    }

    #[test]
    fn adjacency_truncation_is_a_whole_input_error() {
        let s = "AdjacencyGraph\n2\n1\n0\n";
        let err = from_adjacency_string(s).unwrap_err();
        assert_eq!(err.line, None);
        assert!(err.reason.contains("offset 1"), "{err}");
        assert!(from_adjacency_string("").unwrap_err().line.is_none());
    }

    #[test]
    fn adjacency_rejects_unparsable_numbers_at_the_line() {
        let s = "AdjacencyGraph\ntwo\n";
        let err = from_adjacency_string(s).unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.reason.contains("vertex count"), "{err}");
    }

    #[test]
    fn dimacs_round_trip() {
        let wg = add_weights(uniform_random(50, 120, 2), 100, 3);
        let s = to_dimacs_string(&wg);
        let wg2 = from_dimacs_string(&s).expect("parse");
        assert_eq!(wg.num_vertices(), wg2.num_vertices());
        assert_eq!(wg.num_arcs(), wg2.num_arcs());
        for u in 0..wg.num_vertices() {
            let a: Vec<(u32, u32)> = wg.neighbors(u).collect();
            let b: Vec<(u32, u32)> = wg2.neighbors(u).collect();
            assert_eq!(a, b, "vertex {u}");
        }
    }

    #[test]
    fn dimacs_skips_comments() {
        let s = "c a comment\np sp 2 1\nc another\na 1 2 7\n";
        let wg = from_dimacs_string(s).expect("parse");
        assert_eq!(wg.num_vertices(), 2);
        let n0: Vec<(u32, u32)> = wg.neighbors(0).collect();
        assert_eq!(n0, vec![(1, 7)]);
    }

    #[test]
    fn dimacs_rejects_zero_index() {
        let err = from_dimacs_string("p sp 2 1\na 0 1 5\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.reason.contains("1-indexed"), "{err}");
    }

    #[test]
    fn dimacs_rejects_out_of_range_vertex_at_the_line() {
        let err = from_dimacs_string("c hdr\np sp 2 2\na 1 2 3\na 1 5 3\n").unwrap_err();
        assert_eq!(err.line, Some(4));
        assert!(err.reason.contains("out of range"), "{err}");
    }

    #[test]
    fn dimacs_rejects_truncated_lines() {
        let err = from_dimacs_string("p sp 2 1\na 1 2\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.reason.contains("missing weight"), "{err}");
        let err = from_dimacs_string("p sp 2\n").unwrap_err();
        assert_eq!(err.line, Some(1));
        assert!(err.reason.contains("missing arc count"), "{err}");
    }

    #[test]
    fn dimacs_rejects_trailing_fields() {
        let err = from_dimacs_string("p sp 2 1\na 1 2 7 9\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.reason.contains("trailing garbage"), "{err}");
    }

    #[test]
    fn dimacs_rejects_arc_before_p_line() {
        let err = from_dimacs_string("a 1 2 7\np sp 2 1\n").unwrap_err();
        assert_eq!(err.line, Some(1));
        assert!(err.reason.contains("before the p line"), "{err}");
    }

    #[test]
    fn dimacs_rejects_duplicate_p_line() {
        let err = from_dimacs_string("p sp 2 1\np sp 2 1\na 1 2 7\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.reason.contains("duplicate"), "{err}");
    }

    #[test]
    fn dimacs_enforces_the_declared_arc_count() {
        // Too many arcs: caught at the first excess line.
        let err = from_dimacs_string("p sp 2 1\na 1 2 7\na 2 1 7\n").unwrap_err();
        assert_eq!(err.line, Some(3));
        assert!(err.reason.contains("more arcs"), "{err}");
        // Too few arcs: no single line to blame.
        let err = from_dimacs_string("p sp 2 2\na 1 2 7\n").unwrap_err();
        assert_eq!(err.line, None);
        assert!(err.reason.contains("declares 2 arcs"), "{err}");
    }

    #[test]
    fn dimacs_rejects_values_outside_u32() {
        let over = u64::from(u32::MAX) + 1;
        let err = from_dimacs_string(&format!("p sp 2 1\na 1 2 {over}\n")).unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.reason.contains("weight"), "{err}");
        let err = from_dimacs_string(&format!("p sp {} 0\n", over + 1)).unwrap_err();
        assert_eq!(err.line, Some(1));
        assert!(err.reason.contains("u32 id space"), "{err}");
    }

    #[test]
    fn dimacs_rejects_unknown_tags_and_missing_p() {
        let err = from_dimacs_string("p sp 2 1\nq 1 2 3\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.reason.contains("unknown tag"), "{err}");
        assert_eq!(
            from_dimacs_string("c only comments\n").unwrap_err().line,
            None
        );
    }

    #[test]
    fn parse_error_display_names_the_line() {
        let e = GraphParseError::at(7, "boom");
        assert_eq!(e.to_string(), "line 7: boom");
        let e = GraphParseError::whole("boom");
        assert_eq!(e.to_string(), "boom");
    }

    #[test]
    fn file_round_trip() {
        let g = uniform_random(30, 60, 5);
        let dir = std::env::temp_dir().join("rpb_io_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("g.adj");
        write_adjacency(&g, &path).expect("write");
        let g2 = read_adjacency(&path).expect("read");
        assert_eq!(g, g2);
        let _ = std::fs::remove_file(&path);
    }
}
