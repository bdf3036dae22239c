//! Edge-list input/output in the SNAP text format.
//!
//! The paper's datasets are distributed by SNAP as whitespace-separated edge lists with `#`
//! comment lines. This module parses that format (remapping arbitrary node identifiers to the
//! dense `0..n` range the rest of the workspace expects) and writes graphs back out in the same
//! format, so users can run the estimators on the real SNAP files if they have them locally.

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

/// Streaming variant of [`parse_edge_list`]: consumes any [`BufRead`] line by line, so a
/// multi-gigabyte SNAP file (or an HTTP request body) is parsed without ever holding the whole
/// text in memory — only the remapping table and the edge list are retained. Every line is read
/// into one reused buffer, so parsing allocates nothing per line.
pub fn parse_edge_list_reader<R: BufRead>(mut reader: R) -> Result<Graph, EdgeListError> {
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
    use rand::SeedableRng;

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
        let dir = std::env::temp_dir().join("kronpriv-io-test");
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
}
