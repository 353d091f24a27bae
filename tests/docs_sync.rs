//! Keeps the prose surfaces in sync with the code. The README's command
//! table must mirror `tkdi::cli::COMMANDS` (the array that also prints
//! `tkdq help`), every relative link in the README and the docs must
//! resolve to a real file, and the README must point at each normative
//! spec document. Renaming a command, a doc, or a summary string fails
//! here until every surface follows.

use std::path::Path;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(repo_root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

#[test]
fn readme_command_table_matches_the_cli_table() {
    let readme = read("README.md");
    for cmd in tkdi::cli::COMMANDS {
        let row = format!("| `tkdq {}` | {} |", cmd.name, cmd.summary);
        assert!(
            readme.contains(&row),
            "README.md command table is missing or differs for `{}`:\n  expected row: {row}\n\
             (the table mirrors tkdi::cli::COMMANDS — update both together)",
            cmd.name
        );
    }
    // No phantom rows: every `tkdq <word>` table row names a real command.
    for line in readme.lines().filter(|l| l.starts_with("| `tkdq ")) {
        let name = line
            .trim_start_matches("| `tkdq ")
            .split('`')
            .next()
            .unwrap()
            .trim();
        assert!(
            tkdi::cli::COMMANDS.iter().any(|c| c.name == name),
            "README.md documents `tkdq {name}`, which is not in tkdi::cli::COMMANDS"
        );
    }
}

#[test]
fn readme_links_every_spec_document() {
    let readme = read("README.md");
    for doc in [
        "docs/TKDQL.md",
        "docs/WIRE_PROTOCOL.md",
        "docs/ARCHITECTURE.md",
        "docs/INTERNALS.md",
    ] {
        assert!(
            readme.contains(&format!("]({doc})")),
            "README.md does not link {doc}"
        );
        assert!(repo_root().join(doc).is_file(), "{doc} does not exist");
    }
}

/// Every relative markdown link `](path)` in the README and the docs
/// resolves to a file in the repository (anchors and absolute URLs are
/// out of scope).
#[test]
fn relative_links_resolve() {
    for (rel, base) in [
        ("README.md", ""),
        ("docs/TKDQL.md", "docs"),
        ("docs/WIRE_PROTOCOL.md", "docs"),
        ("docs/ARCHITECTURE.md", "docs"),
        ("docs/INTERNALS.md", "docs"),
    ] {
        let text = read(rel);
        for (i, _) in text.match_indices("](") {
            let rest = &text[i + 2..];
            let Some(end) = rest.find(')') else { continue };
            let target = &rest[..end];
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with('#')
                || target.is_empty()
            {
                continue;
            }
            let target = target.split('#').next().unwrap();
            let resolved = repo_root().join(base).join(target);
            assert!(
                resolved.exists(),
                "{rel}: link target {target:?} does not exist (resolved {resolved:?})"
            );
        }
    }
}

/// The four `| kind | name | body |` tables of `docs/WIRE_PROTOCOL.md`
/// (requests, responses, cluster requests, cluster responses — in that
/// order) list exactly the codec's kinds: no row missing, none extra.
#[test]
fn wire_protocol_kind_tables_match_the_codec() {
    use tkdi::serve::{ClusterRequest, ClusterResponse, Request, Response};
    let doc = read("docs/WIRE_PROTOCOL.md");
    let mut tables: Vec<Vec<(u8, String)>> = Vec::new();
    let mut rows: Option<Vec<(u8, String)>> = None;
    for line in doc.lines() {
        if line == "| kind | name | body |" {
            rows = Some(Vec::new());
        } else if let Some(table) = rows.as_mut() {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            if line.starts_with("|---") {
                continue;
            } else if line.starts_with('|') && cells.len() >= 4 {
                let kind = cells[1]
                    .parse()
                    .unwrap_or_else(|_| panic!("bad kind cell in {line:?}"));
                table.push((kind, cells[2].trim_matches('`').to_string()));
            } else {
                tables.extend(rows.take());
            }
        }
    }
    tables.extend(rows);
    let codec = [
        ("requests", Request::KINDS),
        ("responses", Response::KINDS),
        ("cluster requests", ClusterRequest::KINDS),
        ("cluster responses", ClusterResponse::KINDS),
    ];
    assert_eq!(
        tables.len(),
        codec.len(),
        "docs/WIRE_PROTOCOL.md should have one kind table per plane direction"
    );
    for (doc_rows, (what, kinds)) in tables.iter().zip(codec) {
        let kinds: Vec<(u8, String)> = kinds.iter().map(|&(k, n)| (k, n.to_string())).collect();
        let missing: Vec<_> = kinds.iter().filter(|k| !doc_rows.contains(k)).collect();
        let extra: Vec<_> = doc_rows.iter().filter(|r| !kinds.contains(r)).collect();
        assert!(
            missing.is_empty() && extra.is_empty() && doc_rows.len() == kinds.len(),
            "docs/WIRE_PROTOCOL.md {what} table drifted from the codec:\n  \
             missing from the doc: {missing:?}\n  not in the codec: {extra:?}"
        );
    }
}

/// The deep docs must not resurrect retired claims: the serving story is
/// protocol v4 with eight request kinds, and the stale v3 phrasing the
/// README used to carry must not reappear anywhere in the doc set.
#[test]
fn prose_does_not_describe_the_retired_protocol() {
    for rel in ["README.md", "docs/INTERNALS.md", "docs/ARCHITECTURE.md"] {
        let text = read(rel);
        assert!(
            !text.contains("wire protocol (version 3)") && !text.contains("Seven request kinds"),
            "{rel}: still describes the retired v3 wire protocol"
        );
    }
    assert!(read("docs/INTERNALS.md").contains("version 4"));
}
