//! Plain-text edge-list input.
//!
//! Format: one edge per line, two whitespace-separated node ids; lines
//! starting with `#` or `%` are comments (the SNAP convention, so the real
//! Facebook/Epinions files can be dropped in directly). Signed graphs
//! reach training through the binary `.agph` format instead.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;

use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::graph::Graph;

/// Reads an edge list from any reader. `num_nodes` of `None` infers the node
/// count as `max id + 1`; self-loops and duplicates are dropped per the
/// paper's pre-processing.
///
/// # Errors
/// Returns [`GraphError::Parse`] on malformed lines, or propagates I/O
/// errors.
pub fn read_edge_list(reader: impl Read, num_nodes: Option<usize>) -> Result<Graph, GraphError> {
    let buf = BufReader::new(reader);
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut max_id = 0usize;
    for (lineno, line) in buf.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let a = parse_id(it.next(), lineno + 1)?;
        let b = parse_id(it.next(), lineno + 1)?;
        max_id = max_id.max(a).max(b);
        pairs.push((a, b));
    }
    let n = num_nodes.unwrap_or(if pairs.is_empty() { 0 } else { max_id + 1 });
    let mut builder = GraphBuilder::new(n);
    builder.add_edges(pairs)?;
    Ok(builder.build())
}

fn parse_id(tok: Option<&str>, line: usize) -> Result<usize, GraphError> {
    let tok = tok.ok_or(GraphError::Parse {
        line,
        reason: "expected two node ids".into(),
    })?;
    tok.parse::<usize>().map_err(|e| GraphError::Parse {
        line,
        reason: format!("bad node id {tok:?}: {e}"),
    })
}

/// Reads an edge list from a file path.
///
/// # Errors
/// See [`read_edge_list`].
pub fn read_edge_list_file(
    path: impl AsRef<Path>,
    num_nodes: Option<usize>,
) -> Result<Graph, GraphError> {
    let f = std::fs::File::open(path)?;
    read_edge_list(f, num_nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::classic::karate_club;

    #[test]
    fn roundtrip_through_text() {
        let g = karate_club();
        let text: String = g
            .edges()
            .iter()
            .map(|e| format!("{} {}\n", e.u().0, e.v().0))
            .collect();
        let g2 = read_edge_list(text.as_bytes(), Some(34)).unwrap();
        assert_eq!(g.edges(), g2.edges());
        assert_eq!(g2.num_nodes(), 34);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# comment\n\n% another\n0 1\n1 2\n";
        let g = read_edge_list(text.as_bytes(), None).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_nodes(), 3);
    }

    #[test]
    fn self_loops_and_duplicates_dropped() {
        let text = "0 0\n0 1\n1 0\n";
        let g = read_edge_list(text.as_bytes(), None).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn malformed_line_reports_position() {
        let text = "0 1\nbad line here\n";
        let err = read_edge_list(text.as_bytes(), None).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn missing_second_id_is_error() {
        let err = read_edge_list("7\n".as_bytes(), None).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let g = read_edge_list("".as_bytes(), None).unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
