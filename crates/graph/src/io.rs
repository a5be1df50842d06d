//! Plain-text edge-list I/O.
//!
//! # Grammar
//!
//! One edge per line: two decimal `u32` vertex ids separated by
//! whitespace. Further tokens on the line (a weight, a timestamp) are
//! ignored. Blank lines and lines whose first non-whitespace character is
//! `#` or `%` are skipped, which covers common SNAP / KONECT exports.
//! Lines end at `\n`, so a CRLF line ends in whitespace.
//!
//! The reader takes the whole input with one `read_to_end` and walks the
//! bytes line by line:
//!
//! * On a line made only of ASCII bytes, whitespace is exactly the set
//!   `char::is_whitespace` accepts in ASCII: space, `\t`, `\n`, `\x0B`,
//!   `\x0C` and `\r` (`u8::is_ascii_whitespace` lacks `\x0B`). Ids of up
//!   to nine digits are read by a digit loop. A line holding any other
//!   token (a leading `+`, an overflow, a stray character) is read as
//!   `str`, so `str::parse::<u32>` accepts the token or names what is
//!   wrong with it.
//! * A line with any byte ≥ 0x80 is checked as UTF-8 and split with
//!   Unicode `trim` and `split_whitespace`, so NBSP or U+3000 separate
//!   tokens there, and invalid UTF-8 reports
//!   `io error at line N: stream did not contain valid UTF-8`.
//!
//! Errors name the 1-based line, and a failing reader is reported at the
//! line it was reading. The tests hold the reader to a `BufRead::lines`
//! oracle with the same rules: same edges, neighbor order and errors.
//!
//! # Edges
//!
//! Self-loops are dropped before they count toward `n`. A duplicate edge,
//! in either orientation, keeps its first appearance. `n` is the largest
//! id plus one, or 0 when no edge is left.
//!
//! Vertex ids are meant to be dense `0..n`. E edges touch at most 2E
//! vertices, so an input whose largest id is at least `2·E + 2^20`, with
//! E the number of non-self-loop edge lines, is refused with an error
//! naming the line that holds that id. The reader's per-vertex arrays are
//! sized by `n`, so without the bound a 13-byte file naming vertex
//! 4294967295 would ask for gigabytes; the 2^20 slack keeps small files
//! with gaps in their ids working.
//!
//! # Order
//!
//! The dedup uses no hashing. A stable counting sort groups the edge
//! lines by lower endpoint, keeping file order within each group, and one
//! walk over each group keeps an edge when a per-vertex stamp shows the
//! group has not seen its upper endpoint yet. [`read_edges`] returns the
//! distinct edges in that order: by ascending lower endpoint, then by
//! first appearance. [`read_edge_list`] builds its graph from the same
//! scan and dedup, with every neighbor list in the order its edges first
//! appear in the file. For that graph, `StaticGraph::edges()` lists each
//! vertex `u`'s neighbors `w > u` in first-appearance order, so it equals
//! what `read_edges` returns, and a stream built from either is the same.

use crate::{AdjListGraph, Edge, VertexId};
use std::io::{BufRead, Read, Write};

/// Slack of the dense-id bound: the largest id must be below
/// `2·E + ID_SLACK` for E edge lines.
const ID_SLACK: u64 = 1 << 20;

/// Parse an edge list into `n` and its distinct edges, ordered by lower
/// endpoint and then by first appearance (see the module doc).
///
/// Malformed lines, invalid UTF-8, read errors and ids too sparse for the
/// edge count produce an error naming the line.
pub fn read_edges(r: impl Read) -> Result<(usize, Vec<Edge>), String> {
    let (n, lines) = scan(r)?;
    let mut edges = Vec::with_capacity(lines.len());
    first_appearances(n, &lines, |_, e| edges.push(e));
    Ok((n, edges))
}

/// Parse an edge list from a reader into a graph whose neighbor lists
/// follow the file.
///
/// Duplicate edges and self-loops are skipped (simple-graph semantics);
/// errors are those of [`read_edges`].
pub fn read_edge_list(r: impl BufRead) -> Result<AdjListGraph, String> {
    let (n, lines) = scan(r)?;
    let mut first = vec![false; lines.len()];
    let mut degree = vec![0usize; n];
    first_appearances(n, &lines, |pos, e| {
        first[pos] = true;
        degree[e.u().index()] += 1;
        degree[e.v().index()] += 1;
    });
    let distinct = lines.iter().zip(&first).filter(|(_, &f)| f);
    Ok(AdjListGraph::from_distinct_edges(
        &degree,
        distinct.map(|(&e, _)| e),
    ))
}

/// Read the whole input and return `n` and every non-self-loop edge line,
/// in file order.
fn scan(mut r: impl Read) -> Result<(usize, Vec<Edge>), String> {
    let mut buf = Vec::new();
    let failed = r.read_to_end(&mut buf).err();
    // After a read error only the complete lines are parsed; the error
    // belongs to the line after them.
    let text = match failed {
        Some(_) => &buf[..buf.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)],
        None => &buf[..],
    };
    let mut lines = Vec::new();
    let (mut max_id, mut max_line) = (0u32, 0usize);
    let mut lineno = 0;
    let mut at = 0;
    while at < text.len() {
        lineno += 1;
        let (next, pair) = match plain_line(text, at) {
            Some(read) => read,
            None => {
                let end = text[at..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(text.len(), |k| at + k);
                let line = std::str::from_utf8(&text[at..end]).map_err(|_| {
                    format!("io error at line {lineno}: stream did not contain valid UTF-8")
                })?;
                (end + 1, str_line(line, lineno)?)
            }
        };
        at = next;
        let Some((a, b)) = pair else { continue };
        if a == b {
            continue;
        }
        if a.max(b) > max_id {
            (max_id, max_line) = (a.max(b), lineno);
        }
        if lines.len() == u32::MAX as usize {
            return Err(format!("line {lineno}: more than {} edge lines", u32::MAX));
        }
        lines.push(Edge::new(VertexId(a), VertexId(b)));
    }
    if let Some(e) = failed {
        return Err(format!("io error at line {}: {e}", lineno + 1));
    }
    let bound = 2 * lines.len() as u64 + ID_SLACK;
    if u64::from(max_id) >= bound {
        return Err(format!(
            "line {max_line}: vertex id {max_id} is too sparse for {} edge{} \
             (ids must be below 2·edges + {ID_SLACK})",
            lines.len(),
            if lines.len() == 1 { "" } else { "s" },
        ));
    }
    let n = if lines.is_empty() {
        0
    } else {
        max_id as usize + 1
    };
    Ok((n, lines))
}

/// Whether `char::is_whitespace` accepts the ASCII byte `b`, leaving out
/// the line end `\n`.
fn is_blank(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\x0B'..=b'\r')
}

/// Read the line that starts at `text[start]` when it is all ASCII and
/// blank, a comment, or two ids of at most nine digits followed by
/// whitespace: the index after its `\n` and its pair, if any. `None`
/// sends the line to [`str_line`], which gives every other line its
/// verdict; on an ASCII line both read the same tokens.
fn plain_line(text: &[u8], start: usize) -> Option<(usize, Option<(u32, u32)>)> {
    // The end of the input reads as a line end.
    let byte = |i: usize| text.get(i).copied().unwrap_or(b'\n');
    let mut i = start;
    while is_blank(byte(i)) {
        i += 1;
    }
    match byte(i) {
        b'\n' => return Some((i + 1, None)),
        b'#' | b'%' => return Some((ascii_line_end(text, i)?, None)),
        _ => {}
    }
    let (a, after_a) = digits(text, i)?;
    i = after_a;
    if !is_blank(byte(i)) {
        return None;
    }
    while is_blank(byte(i)) {
        i += 1;
    }
    let (b, after_b) = digits(text, i)?;
    if !(is_blank(byte(after_b)) || byte(after_b) == b'\n') {
        return None;
    }
    Some((ascii_line_end(text, after_b)?, Some((a, b))))
}

/// A run of one to nine ASCII digits at `text[start]`: its value and the
/// index after it.
fn digits(text: &[u8], start: usize) -> Option<(u32, usize)> {
    let mut value = 0u32;
    let mut i = start;
    while i < text.len() && i - start < 9 && text[i].is_ascii_digit() {
        value = value * 10 + u32::from(text[i] - b'0');
        i += 1;
    }
    (i > start).then_some((value, i))
}

/// The index after the `\n` that ends the line through `text[from]` (or
/// the input's length), or `None` when a byte on the way is not ASCII.
fn ascii_line_end(text: &[u8], from: usize) -> Option<usize> {
    let rest = &text[from..];
    match rest.iter().position(|&b| b == b'\n' || !b.is_ascii()) {
        Some(k) if rest[k] == b'\n' => Some(from + k + 1),
        Some(_) => None,
        None => Some(text.len()),
    }
}

/// The first two ids of a line read as `str`, or `None` for a blank or
/// comment line: Unicode `trim` and `split_whitespace`, `str::parse`.
fn str_line(line: &str, lineno: usize) -> Result<Option<(u32, u32)>, String> {
    let t = line.trim();
    if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
        return Ok(None);
    }
    let mut it = t.split_whitespace();
    let a: u32 = it
        .next()
        .ok_or_else(|| format!("line {lineno}: missing source"))?
        .parse()
        .map_err(|e| format!("line {lineno}: bad source ({e})"))?;
    let b: u32 = it
        .next()
        .ok_or_else(|| format!("line {lineno}: missing target"))?
        .parse()
        .map_err(|e| format!("line {lineno}: bad target ({e})"))?;
    Ok(Some((a, b)))
}

/// Call `keep(position, edge)` for the first appearance of every distinct
/// edge of `lines`, by ascending lower endpoint and then by position.
/// Every id is below `n`, and `lines` has fewer than 2^32 entries.
fn first_appearances(n: usize, lines: &[Edge], mut keep: impl FnMut(usize, Edge)) {
    // Stable counting sort of (upper endpoint, position) by lower endpoint.
    let mut start = vec![0usize; n + 1];
    for e in lines {
        start[e.u().index() + 1] += 1;
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut fill = start.clone();
    let mut by_lower = vec![(0u32, 0u32); lines.len()];
    for (pos, e) in lines.iter().enumerate() {
        let slot = &mut fill[e.u().index()];
        by_lower[*slot] = (e.v().0, pos as u32);
        *slot += 1;
    }
    drop(fill);
    // `stamp[w]` is the last lower endpoint whose group saw `w`; lower
    // endpoints are below every id, so `u32::MAX` means "never".
    let mut stamp = vec![u32::MAX; n];
    for u in 0..n {
        for &(w, pos) in &by_lower[start[u]..start[u + 1]] {
            if stamp[w as usize] != u as u32 {
                stamp[w as usize] = u as u32;
                keep(pos as usize, Edge::new(VertexId(u as u32), VertexId(w)));
            }
        }
    }
}

/// Write a graph as an edge list (each edge once, `u < v`, sorted).
pub fn write_edge_list(g: &AdjListGraph, mut w: impl Write) -> std::io::Result<()> {
    for e in g.edge_vec() {
        writeln!(w, "{} {}", e.u(), e.v())?;
    }
    Ok(())
}

/// Parse from an in-memory string (convenience for tests and examples).
pub fn parse_edge_list(s: &str) -> Result<AdjListGraph, String> {
    read_edge_list(std::io::Cursor::new(s))
}

/// Serialize to a string.
pub fn to_edge_list_string(g: &AdjListGraph) -> String {
    let mut buf = Vec::new();
    write_edge_list(g, &mut buf).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("edge list is ASCII")
}

impl std::str::FromStr for AdjListGraph {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_edge_list(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StaticGraph;
    use sgs_prng::FastRng;

    /// A line-by-line `BufRead::lines` reader with the module's rules
    /// and messages: the oracle the byte scan must match.
    fn read_edge_list_by_lines(r: impl BufRead) -> Result<AdjListGraph, String> {
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut max_id = 0u32;
        for (lineno, line) in r.lines().enumerate() {
            let line = line.map_err(|e| format!("io error at line {}: {e}", lineno + 1))?;
            let t = line.trim();
            if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
                continue;
            }
            let mut it = t.split_whitespace();
            let a: u32 = it
                .next()
                .ok_or_else(|| format!("line {}: missing source", lineno + 1))?
                .parse()
                .map_err(|e| format!("line {}: bad source ({e})", lineno + 1))?;
            let b: u32 = it
                .next()
                .ok_or_else(|| format!("line {}: missing target", lineno + 1))?
                .parse()
                .map_err(|e| format!("line {}: bad target ({e})", lineno + 1))?;
            if a == b {
                continue;
            }
            max_id = max_id.max(a).max(b);
            edges.push((a, b));
        }
        let n = if edges.is_empty() {
            0
        } else {
            max_id as usize + 1
        };
        Ok(AdjListGraph::from_pairs(n, edges))
    }

    /// Both readers agree on `input`: the same graph down to every
    /// neighbor list, or the same error; and `read_edges` lists exactly
    /// the graph's `edges()`.
    fn assert_matches_oracle(input: &[u8]) {
        let got = read_edge_list(input);
        let want = read_edge_list_by_lines(input);
        let shown = String::from_utf8_lossy(input);
        match (&got, &want) {
            (Ok(g), Ok(w)) => {
                assert_eq!(g.num_vertices(), w.num_vertices(), "{shown:?}");
                assert_eq!(g.num_edges(), w.num_edges(), "{shown:?}");
                assert_eq!(g.edges(), w.edges(), "{shown:?}");
                for v in w.vertices() {
                    assert_eq!(g.neighbors(v), w.neighbors(v), "{shown:?} at {v:?}");
                }
            }
            _ => assert_eq!(
                got.as_ref().err(),
                want.as_ref().err(),
                "{shown:?}: {:?} vs {:?}",
                got.as_ref().map(|g| g.num_edges()),
                want.as_ref().map(|g| g.num_edges()),
            ),
        }
        let listed = read_edges(input);
        match got {
            Ok(g) => assert_eq!(listed, Ok((g.num_vertices(), g.edges())), "{shown:?}"),
            Err(e) => assert_eq!(listed, Err(e), "{shown:?}"),
        }
    }

    /// A random edge-list-like byte string: lines of ids, whitespace,
    /// comments and hard tokens, with ids below 2^20 (the oracle
    /// allocates per id).
    fn fuzz_input(rng: &mut FastRng) -> Vec<u8> {
        const SPACE: [&str; 9] = [
            " ", " ", "\t", "\x0B", "\x0C", "\r", "\u{A0}", "\u{3000}", "\u{85}",
        ];
        // `\x1C` is whitespace to Python's `str.isspace`, not to Rust.
        const HARD: [&[u8]; 10] = [
            b"+",
            b"-",
            b"x",
            b"#",
            b"%",
            b"12345678901",
            b"4294967296",
            b"\xFF",
            b"+7",
            b"\x1C",
        ];
        // Half the inputs are clean apart from their spacing.
        let hard_rate = if rng.gen_bool(0.5) { 0.0 } else { 0.03 };
        // Mostly a few vertices, so duplicates and self-loops are common;
        // now and then ids of up to six and seven digits.
        let wide: u32 = match rng.gen_range(0..1000u32) {
            0 => 1 << 20,
            1..=20 => 100_000,
            _ => 300,
        };
        let mut out = Vec::new();
        let piece = |rng: &mut FastRng, out: &mut Vec<u8>, normal: &[u8]| {
            if rng.gen_bool(hard_rate) {
                out.extend_from_slice(HARD[rng.gen_range(0..HARD.len())]);
            } else {
                out.extend_from_slice(normal);
            }
        };
        let space = |rng: &mut FastRng| {
            let k = if rng.gen_bool(0.9) {
                0
            } else {
                rng.gen_range(0..SPACE.len())
            };
            SPACE[k].as_bytes()
        };
        for _ in 0..rng.gen_range(0..12u32) {
            if rng.gen_bool(0.2) {
                out.extend_from_slice(space(rng));
            }
            match rng.gen_range(0..10u32) {
                0 => {}
                1 => {
                    out.push(if rng.gen_bool(0.5) { b'#' } else { b'%' });
                    out.extend_from_slice(b" 3 4");
                }
                _ => {
                    let tokens = if rng.gen_bool(0.1) {
                        1
                    } else {
                        rng.gen_range(2..4u32)
                    };
                    for t in 0..tokens {
                        if t > 0 {
                            let gap = space(rng);
                            piece(rng, &mut out, gap);
                        }
                        let id = if rng.gen_bool(0.1) {
                            rng.gen_range(0..wide)
                        } else {
                            rng.gen_range(0..8u32)
                        };
                        let text = if rng.gen_bool(0.05) {
                            format!("00{id}")
                        } else {
                            id.to_string()
                        };
                        piece(rng, &mut out, text.as_bytes());
                    }
                }
            }
            if rng.gen_bool(0.2) {
                out.extend_from_slice(space(rng));
            }
            // Every line ends in `\n`, so digits of two lines never run
            // together into one id.
            if rng.gen_bool(0.1) {
                out.push(b'\r');
            }
            out.push(b'\n');
        }
        if rng.gen_bool(0.3) {
            out.pop();
        }
        out
    }

    #[test]
    fn byte_scan_matches_line_parser_on_fuzzed_inputs() {
        let mut rng = FastRng::seed_from_u64(0x5EED_01D5);
        for _ in 0..20_000 {
            assert_matches_oracle(&fuzz_input(&mut rng));
        }
    }

    #[test]
    fn byte_scan_matches_line_parser_on_hand_picked_inputs() {
        for input in [
            &b""[..],
            b"\n\n",
            b"0 1",
            b"0\x0B1\n",
            b"0\x0C1\r\n1\r2\n",
            b"  # c\n\t% c\n3 4 9.5 x\n",
            b"+5 1\n",
            b"0 +\n",
            b"0\n",
            b"-1 2\n",
            b"0 4294967296\n",
            b"0 12345678901\n",
            b"1 0 0\n0 1\n2 0\n0 2\n",
            b"7 7\n",
            b"0\xC2\xA01\n",
            "0\u{3000}1\n1\u{85}2\n".as_bytes(),
            "\u{3000}# wide comment\n0 1\n".as_bytes(),
            b"0 1\n\xFF\n",
            b"0 1\n2 \xFF\n",
            b"0 1\n2 x\n",
        ] {
            assert_matches_oracle(input);
        }
    }

    /// A reader that hands out `good` and then fails.
    struct Failing<'a> {
        good: &'a [u8],
    }

    impl Read for Failing<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.good.is_empty() {
                return Err(std::io::Error::other("disk on fire"));
            }
            let k = out.len().min(self.good.len()).min(3);
            out[..k].copy_from_slice(&self.good[..k]);
            self.good = &self.good[k..];
            Ok(k)
        }
    }

    #[test]
    fn read_errors_name_the_line_being_read() {
        for good in [&b""[..], b"0 1\n", b"0 1\n1 2", b"0 1\nx\n2 3"] {
            let by_lines = read_edge_list_by_lines(std::io::BufReader::new(Failing { good }));
            let got = read_edge_list(std::io::BufReader::new(Failing { good }));
            assert_eq!(got.err(), by_lines.err(), "{good:?}");
        }
        let err = read_edges(Failing { good: b"0 1\n1 2" }).unwrap_err();
        assert_eq!(err, "io error at line 2: disk on fire");
    }

    #[test]
    fn sparse_ids_are_refused_at_the_bound() {
        // One edge: ids must be below 2·1 + 2^20.
        let bound = 2 + (1u64 << 20);
        let (n, edges) = read_edges(format!("0 {}\n", bound - 1).as_bytes()).unwrap();
        assert_eq!((n, edges.len()), (bound as usize, 1));
        let err = read_edges(format!("0 {bound}\n").as_bytes()).unwrap_err();
        assert_eq!(
            err,
            "line 1: vertex id 1048578 is too sparse for 1 edge \
             (ids must be below 2·edges + 1048576)"
        );
        // Self-loops are not edges; the error names the first line that
        // holds the largest id.
        let text = "5 5\n0 1\n2000000 0\n1 2000000\n9 9\n";
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        assert!(
            err.starts_with("line 3: vertex id 2000000 is too sparse for 3 edges"),
            "{err}"
        );
        assert_eq!(
            read_edges(&b"2 3\n0 4294967295\n"[..]).unwrap_err(),
            "line 2: vertex id 4294967295 is too sparse for 2 edges \
             (ids must be below 2·edges + 1048576)"
        );
        // A malformed line still wins over the bound.
        assert!(read_edges(&b"0 300000000\nx 1\n"[..])
            .unwrap_err()
            .starts_with("line 2: bad source"));
    }

    #[test]
    fn edges_come_by_lower_endpoint_then_first_appearance() {
        let (n, edges) = read_edges(&b"3 1\n0 2\n1 0\n2 0\n0 3\n1 2\n"[..]).unwrap();
        assert_eq!(n, 4);
        let pairs: Vec<(u32, u32)> = edges.iter().map(|e| (e.u().0, e.v().0)).collect();
        assert_eq!(pairs, [(0, 2), (0, 1), (0, 3), (1, 3), (1, 2)]);
        let g = parse_edge_list("3 1\n0 2\n1 0\n2 0\n0 3\n1 2\n").unwrap();
        assert_eq!(
            g.neighbors(VertexId(1)),
            [VertexId(3), VertexId(0), VertexId(2)]
        );
    }

    #[test]
    fn roundtrip() {
        let g = crate::gen::gnm(20, 50, 8);
        let s = to_edge_list_string(&g);
        let h = parse_edge_list(&s).unwrap();
        assert_eq!(g.edge_vec(), h.edge_vec());
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let g = parse_edge_list("# header\n\n0 1\n% more\n1 2\n").unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_vertices(), 3);
    }

    #[test]
    fn self_loops_dropped() {
        let g = parse_edge_list("0 0\n0 1\n").unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn bad_line_reports_position() {
        let err = parse_edge_list("0 1\nx y\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn from_str_impl() {
        let g: AdjListGraph = "0 1\n1 2\n2 0".parse().unwrap();
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn empty_input() {
        let g = parse_edge_list("").unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
