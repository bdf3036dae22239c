//! Edge-list input/output in the SNAP text format.
//!
//! The paper's datasets are distributed by SNAP as whitespace-separated edge lists with `#`
//! comment lines. This module parses that format (remapping arbitrary node identifiers to the
//! dense `0..n` range the rest of the workspace expects) and writes graphs back out in the same
//! format, so users can run the estimators on the real SNAP files if they have them locally.
//!
//! # How a line is parsed
//!
//! The parser reads bytes. An all-ASCII line is tokenized in one pass that also finds the line's
//! end. Every other line goes through the per-line `str` logic: one with a non-ASCII byte, or
//! with a token the byte scanner does not accept. That logic defines what a line means, and it
//! is the only place an error is built. The two agree on every line the scanner accepts: on
//! ASCII text, `char::is_whitespace` is exactly tab, `\n`, VT, FF, `\r` and space, and
//! `u64::from_str` accepts exactly an optional `+` followed by digits that fit in a `u64`.
//!
//! # Memory
//!
//! Parsing streams: it holds the edge list, the id remapping and at most one line of text. A
//! line is copied only when it straddles two refills of the reader's buffer. Raw ids that fit
//! in `u32` are stored straight into the edge list. At the end they are remapped through a
//! `Vec<u32>` table when the largest id is below twice the number of edge lines, so the table
//! costs at most 8 bytes per line, no more than the edge list itself. Otherwise, and from the
//! first id above `u32::MAX` on, ids go through a SipHash `HashMap`: upload ids are untrusted,
//! so the map keeps its keyed hasher.

use crate::graph::Graph;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::io::BufRead;
use std::path::Path;

/// Errors arising while reading an edge list.
#[derive(Debug)]
pub enum EdgeListError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line could not be parsed; carries the 1-based line number and its content.
    Parse {
        /// 1-based line number in the input.
        line: usize,
        /// The offending line content.
        content: String,
    },
}

impl std::fmt::Display for EdgeListError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeListError::Io(e) => write!(f, "I/O error reading edge list: {e}"),
            EdgeListError::Parse { line, content } => {
                write!(f, "cannot parse edge list line {line}: {content:?}")
            }
        }
    }
}

impl std::error::Error for EdgeListError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EdgeListError::Io(e) => Some(e),
            EdgeListError::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for EdgeListError {
    fn from(e: io::Error) -> Self {
        EdgeListError::Io(e)
    }
}

/// Parses a SNAP-style edge list from a string.
///
/// * Lines starting with `#` (after leading whitespace) and blank lines are ignored.
/// * Each remaining line must contain at least two whitespace-separated integer tokens; extra
///   tokens (e.g. weights or timestamps) are ignored.
/// * Node identifiers are remapped to `0..n` in order of first appearance.
/// * Self-loops and duplicate/reversed edges are cleaned by [`Graph::from_edges`].
pub fn parse_edge_list(text: &str) -> Result<Graph, EdgeListError> {
    parse_edge_list_reader(text.as_bytes())
}

/// Streaming variant of [`parse_edge_list`]: consumes any [`BufRead`] through `fill_buf` and
/// `consume`, so a multi-gigabyte SNAP file (or an HTTP request body) is parsed without ever
/// holding the whole text in memory (see the module docs for what is held).
///
/// Lines end at `\n`; a final line without one still counts. A line that is not valid UTF-8
/// fails with [`EdgeListError::Io`] of kind [`io::ErrorKind::InvalidData`], as
/// [`BufRead::read_line`] would fail. A line whose first two tokens are not both `u64`s fails
/// with [`EdgeListError::Parse`], carrying the line without its `\n` (or `\r\n`). A read that
/// returns [`io::ErrorKind::Interrupted`] is retried.
pub fn parse_edge_list_reader<R: BufRead>(mut reader: R) -> Result<Graph, EdgeListError> {
    let mut parsed = Parsed::default();
    // The start of a line that straddles a refill of the reader's buffer.
    let mut carry = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        let len = chunk.len();
        if len == 0 {
            break;
        }
        let mut rest = chunk;
        if !carry.is_empty() {
            let Some(end) = rest.iter().position(|&b| b == b'\n') else {
                carry.extend_from_slice(rest);
                reader.consume(len);
                continue;
            };
            carry.extend_from_slice(&rest[..=end]);
            parsed.line(&carry, true)?;
            carry.clear();
            rest = &rest[end + 1..];
        }
        while !rest.is_empty() {
            match parsed.line(rest, false)? {
                Some(used) => rest = &rest[used..],
                None => {
                    carry.extend_from_slice(rest);
                    break;
                }
            }
        }
        reader.consume(len);
    }
    if !carry.is_empty() {
        parsed.line(&carry, true)?;
    }
    Ok(parsed.finish())
}

/// The parser's state: the lines read so far and the edges they held.
#[derive(Default)]
struct Parsed {
    /// Number of lines parsed, i.e. the 1-based number of the last one.
    lines: usize,
    /// Every edge line's ids: raw while `ids` is [`Ids::Raw`], dense once it is [`Ids::Keyed`].
    edges: Vec<(u32, u32)>,
    ids: Ids,
}

/// How the ids in [`Parsed::edges`] are stored.
enum Ids {
    /// Every id so far fits in `u32` and is stored raw; `max` is the largest.
    Raw { max: u32 },
    /// Ids are remapped as they arrive, through a keyed map from raw id to dense id.
    Keyed(HashMap<u64, u32>),
}

impl Default for Ids {
    fn default() -> Self {
        Ids::Raw { max: 0 }
    }
}

impl Parsed {
    /// Parses the line at the start of `bytes` if `bytes` holds all of it: up to a `\n`, or, when
    /// `whole`, to the end of `bytes`. Returns how many bytes the line used, or `None` when the
    /// line may continue past the end of `bytes`.
    fn line(&mut self, bytes: &[u8], whole: bool) -> Result<Option<usize>, EdgeListError> {
        let scanned = scan_ascii_line(bytes);
        let end = match &scanned {
            Some(line) => line.end,
            None => bytes.iter().position(|&b| b == b'\n').unwrap_or(bytes.len()),
        };
        if end == bytes.len() && !whole {
            return Ok(None);
        }
        self.lines += 1;
        let used = bytes.len().min(end + 1);
        let edge = match scanned {
            Some(line) => line.edge,
            None => parse_line_str(&bytes[..used], self.lines)?,
        };
        if let Some((a, b)) = edge {
            self.push(a, b);
        }
        Ok(Some(used))
    }

    /// Stores one edge line's ids: raw while every id so far fits in `u32`, else through the
    /// keyed map, after rekeying what was stored raw.
    fn push(&mut self, a: u64, b: u64) {
        if let Ids::Raw { max } = &mut self.ids {
            if let (Ok(a), Ok(b)) = (u32::try_from(a), u32::try_from(b)) {
                *max = (*max).max(a).max(b);
                self.edges.push((a, b));
                return;
            }
            self.ids = Ids::Keyed(rekey(&mut self.edges));
        }
        if let Ids::Keyed(ids) = &mut self.ids {
            let edge = (intern(ids, a), intern(ids, b));
            self.edges.push(edge);
        }
    }

    /// Remaps any raw ids still stored to `0..n` and builds the graph.
    fn finish(mut self) -> Graph {
        let n = match self.ids {
            Ids::Raw { max } if (max as usize) < 2 * self.edges.len() => {
                dense_remap(&mut self.edges, max)
            }
            Ids::Raw { .. } => rekey(&mut self.edges).len(),
            Ids::Keyed(ids) => ids.len(),
        };
        Graph::from_edges(n, self.edges)
    }
}

/// Replaces the raw ids in `edges` by dense ids in order of first appearance, through a table
/// indexed by raw id, and returns the number of distinct ids.
fn dense_remap(edges: &mut [(u32, u32)], max: u32) -> usize {
    let mut dense = vec![u32::MAX; max as usize + 1];
    let mut n = 0u32;
    let mut id = |raw: u32| {
        let slot = &mut dense[raw as usize];
        if *slot == u32::MAX {
            *slot = n;
            n += 1;
        }
        *slot
    };
    for (a, b) in edges.iter_mut() {
        *a = id(*a);
        *b = id(*b);
    }
    n as usize
}

/// Replaces the raw ids in `edges` by dense ids in order of first appearance, through a keyed
/// map, and returns the map for the ids still to come.
fn rekey(edges: &mut [(u32, u32)]) -> HashMap<u64, u32> {
    let mut ids = HashMap::new();
    for (a, b) in edges.iter_mut() {
        *a = intern(&mut ids, u64::from(*a));
        *b = intern(&mut ids, u64::from(*b));
    }
    ids
}

/// The dense id of `raw`, the next unused one if `raw` is new.
fn intern(ids: &mut HashMap<u64, u32>, raw: u64) -> u32 {
    let next_id = ids.len() as u32;
    *ids.entry(raw).or_insert(next_id)
}

/// An all-ASCII line that the byte scanner understood.
struct AsciiLine {
    /// The first two ids, or `None` for a blank or `#` comment line.
    edge: Option<(u64, u64)>,
    /// Index of the line's `\n`, or the length of the scanned bytes if they hold none.
    end: usize,
}

/// Whitespace inside a line: the ASCII characters for which `char::is_whitespace` holds, minus
/// the `\n` that ends the line. (`u8::is_ascii_whitespace` differs: it omits VT.)
fn is_blank(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | 0x0B | 0x0C | b'\r')
}

fn skip_blanks(bytes: &[u8], mut i: usize) -> usize {
    while bytes.get(i).is_some_and(|&b| is_blank(b)) {
        i += 1;
    }
    i
}

/// Scans the line at the start of `bytes`, up to its `\n` or the end of `bytes`. Returns `None`
/// for a line it cannot vouch for, which then goes through [`parse_line_str`]: one holding a
/// non-ASCII byte, or whose first two tokens are not both `u64`s.
fn scan_ascii_line(bytes: &[u8]) -> Option<AsciiLine> {
    let mut i = skip_blanks(bytes, 0);
    let edge = match bytes.get(i) {
        None | Some(b'\n' | b'#') => None,
        Some(_) => {
            let (a, end) = id_token(bytes, i)?;
            let (b, end) = id_token(bytes, skip_blanks(bytes, end))?;
            i = end;
            Some((a, b))
        }
    };
    // The rest of the line is ignored, but must be ASCII: a non-ASCII byte may be invalid UTF-8.
    while let Some(&b) = bytes.get(i) {
        if b == b'\n' {
            break;
        }
        if !b.is_ascii() {
            return None;
        }
        i += 1;
    }
    Some(AsciiLine { edge, end: i })
}

/// The token at `bytes[start..]` as `u64::from_str` reads it (an optional `+` and digits, no
/// overflow), with the index just past it. `None` unless the token ends at a blank, a `\n` or
/// the end of `bytes`: `3#` or `1a` is one token that does not parse.
fn id_token(bytes: &[u8], start: usize) -> Option<(u64, usize)> {
    let digits = start + usize::from(bytes.get(start) == Some(&b'+'));
    let mut i = digits;
    let mut value = 0u64;
    while let Some(digit) = bytes.get(i).map(|&b| b.wrapping_sub(b'0')).filter(|&d| d < 10) {
        value = value.checked_mul(10)?.checked_add(u64::from(digit))?;
        i += 1;
    }
    let ends = bytes.get(i).is_none_or(|&b| b == b'\n' || is_blank(b));
    (i > digits && ends).then_some((value, i))
}

/// The reference meaning of one line, `\n` included if it has one: `None` for a blank or `#`
/// comment line, else its first two tokens. It works on `str`, so it splits at Unicode
/// whitespace too, and it builds every error the parser returns: invalid UTF-8 fails as
/// [`BufRead::read_line`] fails, and a [`EdgeListError::Parse`] carries the line without its
/// terminator.
fn parse_line_str(bytes: &[u8], number: usize) -> Result<Option<(u64, u64)>, EdgeListError> {
    let text = std::str::from_utf8(bytes).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidData, "stream did not contain valid UTF-8")
    })?;
    // The line without its terminator, exactly as `BufRead::lines` would yield it.
    let raw = text.strip_suffix('\n').map_or(text, |l| l.strip_suffix('\r').unwrap_or(l));
    let line = raw.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut tokens = line.split_whitespace();
    let parse_err = || EdgeListError::Parse { line: number, content: raw.to_string() };
    let a: u64 = tokens.next().ok_or_else(parse_err)?.parse().map_err(|_| parse_err())?;
    let b: u64 = tokens.next().ok_or_else(parse_err)?.parse().map_err(|_| parse_err())?;
    Ok(Some((a, b)))
}

/// Reads and parses an edge-list file, streaming it through a [`io::BufReader`] instead of
/// loading the whole file into memory first.
pub fn read_edge_list(path: impl AsRef<Path>) -> Result<Graph, EdgeListError> {
    let file = fs::File::open(path)?;
    parse_edge_list_reader(io::BufReader::new(file))
}

/// Serialises a graph as a SNAP-style edge list (one `u\tv` line per undirected edge, preceded
/// by a comment header with the node and edge counts).
pub fn to_edge_list_string(g: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Undirected graph: {} nodes, {} edges", g.node_count(), g.edge_count());
    let _ = writeln!(out, "# FromNodeId\tToNodeId");
    for &(u, v) in g.edges() {
        let _ = writeln!(out, "{u}\t{v}");
    }
    out
}

/// Writes a graph to a file in the SNAP edge-list format.
pub fn write_edge_list(g: &Graph, path: impl AsRef<Path>) -> Result<(), io::Error> {
    fs::write(path, to_edge_list_string(g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::rand_edges;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    #[test]
    fn parses_simple_edge_list() {
        let g = parse_edge_list("0 1\n1 2\n2 0\n").unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let text = "# header\n\n  # another comment\n5 7\n7 9\n";
        let g = parse_edge_list(text).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn remaps_sparse_node_identifiers() {
        let g = parse_edge_list("1000000 2000000\n2000000 3000000\n").unwrap();
        assert_eq!(g.node_count(), 3);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn ignores_extra_columns() {
        let g = parse_edge_list("0 1 0.5 2009\n1 2 1.2 2010\n").unwrap();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn deduplicates_reverse_edges_and_loops() {
        let g = parse_edge_list("0 1\n1 0\n2 2\n").unwrap();
        assert_eq!(g.edge_count(), 1);
        // Node 2 exists (it appeared) but has no edges.
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn reports_parse_error_with_line_number() {
        let err = parse_edge_list("0 1\nnot-a-node 3\n").unwrap_err();
        match err {
            EdgeListError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn reports_missing_second_token() {
        let err = parse_edge_list("42\n").unwrap_err();
        assert!(matches!(err, EdgeListError::Parse { line: 1, .. }));
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = parse_edge_list("# nothing here\n").unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn round_trips_through_string_serialisation() {
        let g = Graph::from_edges(5, vec![(0, 1), (1, 2), (3, 4), (0, 4)]);
        let text = to_edge_list_string(&g);
        let parsed = parse_edge_list(&text).unwrap();
        // Node ids are remapped by first appearance, so compare invariants rather than equality.
        assert_eq!(parsed.edge_count(), g.edge_count());
        let mut a = g.degrees();
        let mut b = parsed.degrees();
        a.sort_unstable();
        b.sort_unstable();
        // The isolated-node caveat: nodes with no edges never appear in the output.
        assert_eq!(a.iter().filter(|&&d| d > 0).count(), b.len());
        assert_eq!(a.into_iter().filter(|&d| d > 0).collect::<Vec<_>>(), b);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("kronpriv-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        write_edge_list(&g, &path).unwrap();
        let back = read_edge_list(&path).unwrap();
        assert_eq!(back.edge_count(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn streaming_reader_matches_in_memory_parse() {
        let text = "# header\n10 20\r\n20 30\n30 10\n";
        let in_memory = parse_edge_list(text).unwrap();
        // A 4-byte buffer forces many refills, exercising the incremental line assembly.
        let streamed =
            parse_edge_list_reader(io::BufReader::with_capacity(4, text.as_bytes())).unwrap();
        assert_eq!(in_memory, streamed);
        assert_eq!(streamed.edge_count(), 3);
        // An interrupted read is retried, as `read_line` retries it.
        let interrupted =
            parse_edge_list_reader(Interrupting { bytes: text.as_bytes(), interrupt: false });
        assert_eq!(in_memory, interrupted.unwrap());
    }

    /// A reader that fails every other `fill_buf` with `Interrupted`, as a signal can interrupt
    /// a read, and otherwise yields at most 3 bytes.
    struct Interrupting<'a> {
        bytes: &'a [u8],
        interrupt: bool,
    }

    impl io::Read for Interrupting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.fill_buf()?.len().min(buf.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.consume(n);
            Ok(n)
        }
    }

    impl BufRead for Interrupting<'_> {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            self.interrupt = !self.interrupt;
            if self.interrupt {
                return Err(io::ErrorKind::Interrupted.into());
            }
            Ok(&self.bytes[..self.bytes.len().min(3)])
        }

        fn consume(&mut self, amount: usize) {
            self.bytes = &self.bytes[amount..];
        }
    }

    #[test]
    fn streaming_reader_reports_line_numbers_and_io_errors() {
        let err = parse_edge_list_reader("0 1\nbroken line\n".as_bytes()).unwrap_err();
        assert!(matches!(err, EdgeListError::Parse { line: 2, .. }));
        // Invalid UTF-8 surfaces as the underlying I/O error, not a panic.
        let err = parse_edge_list_reader(&[0x30, 0x20, 0x31, 0x0A, 0xFF, 0xFE][..]).unwrap_err();
        assert!(matches!(err, EdgeListError::Io(_)));
    }

    #[test]
    fn read_missing_file_is_io_error() {
        let err = read_edge_list("/definitely/not/a/real/path.txt").unwrap_err();
        assert!(matches!(err, EdgeListError::Io(_)));
        // Display implementations should be non-empty and mention the failure.
        assert!(format!("{err}").contains("I/O"));
    }

    // Former proptest property, now a deterministic seeded loop.
    #[test]
    fn serialisation_round_trip_preserves_edge_count() {
        let mut rng = StdRng::seed_from_u64(0x10_7001);
        for _ in 0..128 {
            let edges = rand_edges(&mut rng, 20, 80);
            let g = Graph::from_edges(20, edges);
            let parsed = parse_edge_list(&to_edge_list_string(&g)).unwrap();
            assert_eq!(parsed.edge_count(), g.edge_count());
        }
    }

    /// The `read_line` parser the byte-level one replaced, verbatim: the reference that
    /// `parse_edge_list_reader` must match graph for graph and error for error.
    fn reference_parse<R: BufRead>(mut reader: R) -> Result<Graph, EdgeListError> {
        let mut ids: HashMap<u64, u32> = HashMap::new();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut buf = String::new();
        let mut line_number = 0usize;
        loop {
            buf.clear();
            if reader.read_line(&mut buf)? == 0 {
                break;
            }
            line_number += 1;
            // The line without its terminator, exactly as `BufRead::lines` would yield it.
            let raw =
                buf.strip_suffix('\n').map_or(buf.as_str(), |l| l.strip_suffix('\r').unwrap_or(l));
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut tokens = line.split_whitespace();
            let parse_err = || EdgeListError::Parse { line: line_number, content: raw.to_string() };
            let a: u64 = tokens.next().ok_or_else(parse_err)?.parse().map_err(|_| parse_err())?;
            let b: u64 = tokens.next().ok_or_else(parse_err)?.parse().map_err(|_| parse_err())?;
            let next_id = ids.len() as u32;
            let ua = *ids.entry(a).or_insert(next_id);
            let next_id = ids.len() as u32;
            let ub = *ids.entry(b).or_insert(next_id);
            edges.push((ua, ub));
        }
        Ok(Graph::from_edges(ids.len(), edges))
    }

    /// Whether two parse results are the same graph, or errors of the same variant (and, for
    /// `Parse`, the same line and content; for `Io`, the same kind).
    fn same_outcome(a: &Result<Graph, EdgeListError>, b: &Result<Graph, EdgeListError>) -> bool {
        match (a, b) {
            (Ok(a), Ok(b)) => a == b,
            (Err(EdgeListError::Io(a)), Err(EdgeListError::Io(b))) => a.kind() == b.kind(),
            (
                Err(EdgeListError::Parse { line: la, content: ca }),
                Err(EdgeListError::Parse { line: lb, content: cb }),
            ) => la == lb && ca == cb,
            _ => false,
        }
    }

    /// Parses `text` as a bare slice and through `BufReader`s of capacities from one byte up,
    /// so lines straddle refills at every offset, and checks each result against the reference.
    fn assert_matches_reference(text: &[u8]) {
        let expected = reference_parse(text);
        let bare = parse_edge_list_reader(text);
        assert!(same_outcome(&expected, &bare), "{text:?}: {bare:?} != {expected:?}");
        for capacity in [1, 2, 3, 5, 8, 64, 8192] {
            let got = parse_edge_list_reader(io::BufReader::with_capacity(capacity, text));
            assert!(
                same_outcome(&expected, &got),
                "{text:?} at capacity {capacity}: {got:?} != {expected:?}"
            );
        }
    }

    /// A seeded 1–6-line input mixing valid and invalid ids, ASCII and Unicode separators,
    /// comments (one of them invalid UTF-8) and every line ending, the last one optional.
    fn crafted_input(rng: &mut StdRng) -> Vec<u8> {
        const IDS: [&str; 6] = ["0", "1", "2", "+3", "007", "4294967296"];
        const TOKENS: [&[u8]; 13] = [
            b"0",
            b"+3",
            b"+",
            b"-1",
            b"007",
            b"18446744073709551615",
            b"18446744073709551616",
            b"4294967296",
            b"x",
            b"1a",
            b"3#",
            "\u{e9}".as_bytes(),
            b"\xFF",
        ];
        const SEPARATORS: [&[u8]; 9] = [
            b" ",
            b"\t",
            b"\x0B",
            b"\x0C",
            b"\r",
            "\u{A0}".as_bytes(),
            "\u{2003}".as_bytes(),
            "\u{85}".as_bytes(),
            b",",
        ];
        const COMMENTS: [&[u8]; 3] = [b"# c 1 2", "# \u{fc}".as_bytes(), b"#\xFE"];
        const ENDINGS: [&[u8]; 3] = [b"\n", b"\r\n", b"\r\r\n"];
        let mut text = Vec::new();
        let lines = rng.gen_range(1..=6);
        for line in 0..lines {
            if rng.gen_bool(0.3) {
                text.extend_from_slice(SEPARATORS.choose(rng).unwrap());
            }
            let tokens = match rng.gen_range(0..12) {
                0 => {
                    text.extend_from_slice(COMMENTS.choose(rng).unwrap());
                    0
                }
                1 => 0,
                2 => 1,
                _ => rng.gen_range(2..=3),
            };
            for token in 0..tokens {
                if token > 0 {
                    text.extend_from_slice(SEPARATORS.choose(rng).unwrap());
                }
                // Mostly ids that parse, so that many inputs reach their later lines.
                if rng.gen_bool(0.9) {
                    text.extend_from_slice(IDS.choose(rng).unwrap().as_bytes());
                } else {
                    text.extend_from_slice(TOKENS.choose(rng).unwrap());
                }
            }
            if rng.gen_bool(0.2) {
                text.extend_from_slice(SEPARATORS.choose(rng).unwrap());
            }
            if line + 1 < lines || rng.gen_bool(0.7) {
                text.extend_from_slice(ENDINGS.choose(rng).unwrap());
            }
        }
        text
    }

    #[test]
    fn byte_parser_matches_the_read_line_reference_on_crafted_inputs() {
        let mut rng = StdRng::seed_from_u64(0x5ca7_17e5);
        for _ in 0..20_000 {
            assert_matches_reference(&crafted_input(&mut rng));
        }
    }

    #[test]
    fn every_remap_path_matches_the_reference() {
        let mut rng = StdRng::seed_from_u64(0x0d_e45e);
        let edges: Vec<(u64, u64)> =
            (0..3000).map(|_| (rng.gen_range(0..5000), rng.gen_range(0..5000))).collect();
        let text = |offset: u64, huge_line: Option<usize>| {
            let mut text = String::from("# from to\n");
            for (line, &(a, b)) in edges.iter().enumerate() {
                let a = if huge_line == Some(line) { 1 << 32 } else { a + offset };
                let _ = writeln!(text, "{a}\t{}", b + offset);
            }
            text
        };
        // Dense table, keyed rekey of every id at the end, keyed switch at line 2500.
        for text in [text(0, None), text(1_000_000_000, None), text(0, Some(2500))] {
            assert_matches_reference(text.as_bytes());
        }
        // One edge line, so the dense table would need 2^32 slots: the keyed map takes it.
        let g = parse_edge_list("0 4294967295\n").unwrap();
        assert_eq!((g.node_count(), g.edge_count()), (2, 1));
    }
}
