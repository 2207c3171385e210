//! Plain-text graph I/O.
//!
//! Format: one edge per line, two whitespace-separated node ids; lines
//! starting with `#` or `%` are comments (the SNAP convention, so the real
//! Facebook/Epinions files can be dropped in directly). Labels use one
//! `node label` pair per line. Signed edge lists append a third token per
//! line — `+`/`1` for friend edges, `-`/`-1` for foe edges — matching the
//! SNAP signed-network convention (e.g. soc-sign-epinions).

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
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

/// Reads a signed edge list: `u v sign` per line, where `sign` is `+`/`1`
/// for a friend edge or `-`/`-1` for a foe edge. Normalisation as in
/// [`read_edge_list`]; the first occurrence of a duplicated edge pins its
/// sign.
///
/// # Errors
/// Returns [`GraphError::Parse`] on malformed lines or unknown sign
/// tokens, or propagates I/O errors.
pub fn read_signed_edge_list(
    reader: impl Read,
    num_nodes: Option<usize>,
) -> Result<Graph, GraphError> {
    let buf = BufReader::new(reader);
    let mut triples: Vec<(usize, usize, bool)> = Vec::new();
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
        let foe = parse_sign(it.next(), lineno + 1)?;
        max_id = max_id.max(a).max(b);
        triples.push((a, b, foe));
    }
    let n = num_nodes.unwrap_or(if triples.is_empty() { 0 } else { max_id + 1 });
    let mut builder = GraphBuilder::new(n);
    for (a, b, foe) in triples {
        builder.add_signed_edge(a, b, foe)?;
    }
    Ok(builder.build())
}

fn parse_sign(tok: Option<&str>, line: usize) -> Result<bool, GraphError> {
    let tok = tok.ok_or(GraphError::Parse {
        line,
        reason: "expected two node ids and a sign".into(),
    })?;
    match tok {
        "+" | "1" | "+1" => Ok(false),
        "-" | "-1" => Ok(true),
        other => Err(GraphError::Parse {
            line,
            reason: format!("bad sign token {other:?} (expected +, 1, +1, -, or -1)"),
        }),
    }
}

/// Writes the edge list of `graph` (one `u v` pair per line).
///
/// # Errors
/// Propagates I/O errors.
pub fn write_edge_list(graph: &Graph, writer: impl Write) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    for e in graph.edges() {
        writeln!(w, "{} {}", e.u().0, e.v().0)?;
    }
    w.flush()?;
    Ok(())
}

/// Writes the signed edge list of `graph` (one `u v sign` triple per line,
/// `+` for friend and `-` for foe). Unsigned graphs write every edge as a
/// friend edge.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_signed_edge_list(graph: &Graph, writer: impl Write) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    for (i, e) in graph.edges().iter().enumerate() {
        let sign = if graph.edge_is_foe(i) { '-' } else { '+' };
        writeln!(w, "{} {} {sign}", e.u().0, e.v().0)?;
    }
    w.flush()?;
    Ok(())
}

/// Reads per-node labels: lines of `node label`; nodes not listed get label
/// 0. Comments as in [`read_edge_list`].
///
/// # Errors
/// Returns [`GraphError::Parse`] on malformed lines or out-of-range nodes.
pub fn read_labels(reader: impl Read, num_nodes: usize) -> Result<Vec<u32>, GraphError> {
    let buf = BufReader::new(reader);
    let mut labels = vec![0u32; num_nodes];
    for (lineno, line) in buf.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let node = parse_id(it.next(), lineno + 1)?;
        let label = parse_id(it.next(), lineno + 1)?;
        if node >= num_nodes {
            return Err(GraphError::Parse {
                line: lineno + 1,
                reason: format!("node {node} out of range ({num_nodes} nodes)"),
            });
        }
        labels[node] = label as u32;
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::classic::karate_club;

    #[test]
    fn roundtrip_through_text() {
        let g = karate_club();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..], Some(34)).unwrap();
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
    fn labels_parse_with_default_zero() {
        let text = "0 3\n2 1\n";
        let labels = read_labels(text.as_bytes(), 4).unwrap();
        assert_eq!(labels, vec![3, 0, 1, 0]);
    }

    #[test]
    fn label_node_out_of_range() {
        let err = read_labels("9 1\n".as_bytes(), 3).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let g = read_edge_list("".as_bytes(), None).unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn signed_roundtrip_through_text() {
        use crate::edge::Edge;
        use crate::graph::Graph;
        let g = Graph::from_parts_signed(
            3,
            vec![Edge::from_raw(0, 1), Edge::from_raw(1, 2)],
            Some(vec![false, true]),
            None,
        );
        let mut buf = Vec::new();
        write_signed_edge_list(&g, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf.clone()).unwrap(), "0 1 +\n1 2 -\n");
        let g2 = read_signed_edge_list(&buf[..], Some(3)).unwrap();
        assert_eq!(g2.edges(), g.edges());
        assert_eq!(g2.signs(), g.signs());
    }

    #[test]
    fn signed_reader_accepts_numeric_tokens() {
        let text = "# signed\n0 1 1\n1 2 -1\n2 3 +1\n";
        let g = read_signed_edge_list(text.as_bytes(), None).unwrap();
        assert_eq!(g.signs(), Some(&[false, true, false][..]));
    }

    #[test]
    fn signed_reader_rejects_bad_tokens() {
        let err = read_signed_edge_list("0 1 friend\n".as_bytes(), None).unwrap_err();
        assert!(err.to_string().contains("bad sign token"), "{err}");
        let err = read_signed_edge_list("0 1\n".as_bytes(), None).unwrap_err();
        assert!(err.to_string().contains("and a sign"), "{err}");
    }

    #[test]
    fn unsigned_graph_writes_all_friend() {
        let g = karate_club();
        let mut buf = Vec::new();
        write_signed_edge_list(&g, &mut buf).unwrap();
        let g2 = read_signed_edge_list(&buf[..], Some(34)).unwrap();
        assert_eq!(g2.num_foe_edges(), 0);
        assert_eq!(g2.edges(), g.edges());
    }
}
