//! The prose names only what exists. Every backticked `crates/…`,
//! `tests/…` or `examples/…` path in README.md, DESIGN.md, EXPERIMENTS.md
//! and docs/*.md
//! must exist, and every backticked `Type::member` must name a type
//! defined under `crates/` that still has that fn, field, variant or
//! constant. Types of the standard library are listed in `STD_TYPES`.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Standard-library types the docs name.
const STD_TYPES: &[&str] = &["Arc", "Duration"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md.
fn doc_files() -> Vec<PathBuf> {
    let mut files = vec![
        root().join("README.md"),
        root().join("DESIGN.md"),
        root().join("EXPERIMENTS.md"),
    ];
    let mut docs: Vec<PathBuf> = fs::read_dir(root().join("docs"))
        .expect("docs/")
        .map(|e| e.expect("docs entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "md"))
        .collect();
    docs.sort();
    files.extend(docs);
    files
}

/// Every `.rs` file under `dir`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("read dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// `src` with comments blanked and string and char literals emptied, so
/// braces and names in them do not count. Lifetimes stay.
fn code_only(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                i += 2;
                while i + 1 < b.len() && !(b[i] == b'*' && b[i + 1] == b'/') {
                    i += 1;
                }
                i += 2;
            }
            b'r' if b.get(i + 1).is_some_and(|&c| c == b'"' || c == b'#')
                && (i == 0 || !is_ident(b[i - 1])) =>
            {
                let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
                let close: Vec<u8> = std::iter::once(b'"')
                    .chain(std::iter::repeat_n(b'#', hashes))
                    .collect();
                i += 2 + hashes;
                while i < b.len() && !b[i..].starts_with(&close) {
                    i += 1;
                }
                i += close.len();
                out.extend_from_slice(b"\"\"");
            }
            b'"' => {
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
                out.extend_from_slice(b"\"\"");
            }
            // A char literal ('x', '\n', '\u{..}'), not a lifetime ('a).
            b'\'' if b.get(i + 1) == Some(&b'\\') || b.get(i + 2) == Some(&b'\'') => {
                i += 2;
                while i < b.len() && b[i] != b'\'' {
                    i += 1;
                }
                i += 1;
                out.extend_from_slice(b"' '");
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// The identifier that starts at byte `at`, if one does.
fn ident_at(s: &str, at: usize) -> &str {
    let len = s.as_bytes()[at..]
        .iter()
        .take_while(|&&c| is_ident(c))
        .count();
    &s[at..at + len]
}

/// The index one past the `}` matching the `{` at `open`.
fn block_end(code: &str, open: usize) -> usize {
    let mut depth = 0;
    for (i, c) in code.bytes().enumerate().skip(open) {
        match c {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
    }
    code.len()
}

/// Byte offsets of `word` in `code` as a whole identifier.
fn word_positions<'a>(code: &'a str, word: &'a str) -> impl Iterator<Item = usize> + 'a {
    code.match_indices(word)
        .map(|(at, _)| at)
        .filter(move |&at| {
            let before = at.checked_sub(1).map(|i| code.as_bytes()[i]);
            let after = code.as_bytes().get(at + word.len()).copied();
            !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
        })
}

/// The type an `impl` header implements for: after ` for ` if there is
/// one, with generics, references and paths stripped.
fn impl_self_type(header: &str) -> String {
    let mut header = header.trim();
    if header.starts_with('<') {
        let mut depth = 0;
        let end = header
            .char_indices()
            .find(|&(_, c)| {
                depth += match c {
                    '<' => 1,
                    '>' => -1,
                    _ => 0,
                };
                depth == 0
            })
            .map_or(header.len(), |(i, _)| i + 1);
        header = &header[end..];
    }
    let ty = match word_positions(header, "for").last() {
        Some(at) => &header[at + 3..],
        None => header,
    };
    let ty = ty.split("where").next().unwrap_or(ty);
    let ty = ty.split('<').next().unwrap_or(ty);
    let ty = ty.rsplit("::").next().unwrap_or(ty);
    ty.trim_start_matches(['&', ' '])
        .trim_start_matches("mut ")
        .trim_start_matches("dyn ")
        .trim()
        .to_owned()
}

/// The names a struct, enum or trait body declares at its top level:
/// fields, variants, and (for traits) `fn`s and constants.
fn body_members(body: &str, out: &mut HashSet<String>) {
    let b = body.as_bytes();
    let (mut braces, mut nested) = (0i32, 0i32);
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'{' => braces += 1,
            b'}' => braces -= 1,
            b'(' | b'[' | b'<' => nested += 1,
            b')' | b']' => nested -= 1,
            b'>' if i > 0 && b[i - 1] != b'-' => nested -= 1,
            c if is_ident(c) && (i == 0 || !is_ident(b[i - 1])) => {
                let name = ident_at(body, i);
                let next = body[i + name.len()..].trim_start();
                let declares = !next.starts_with("::")
                    && [":", "(", "{", ",", "=", "}"]
                        .iter()
                        .any(|p| next.starts_with(p));
                if braces == 1 && nested == 0 && declares {
                    out.insert(name.to_owned());
                }
                i += name.len();
                continue;
            }
            _ => {}
        }
        i += 1;
    }
}

/// Every type defined under `crates/`, with the members its definitions
/// and `impl` blocks declare.
fn definitions() -> HashMap<String, HashSet<String>> {
    let mut files = Vec::new();
    rust_files(&root().join("crates"), &mut files);
    let mut types: HashMap<String, HashSet<String>> = HashMap::new();
    for file in files {
        let code = code_only(&fs::read_to_string(&file).expect("read source"));
        for kw in ["struct", "enum", "trait", "type", "union"] {
            for at in word_positions(&code, kw) {
                let rest = &code[at + kw.len()..];
                let skipped = rest.len() - rest.trim_start().len();
                let name_at = at + kw.len() + skipped;
                let name = ident_at(&code, name_at);
                if name.is_empty() {
                    continue;
                }
                let members = types.entry(name.to_owned()).or_default();
                let tail = &code[name_at..];
                let open = tail.find('{');
                let semi = tail.find(';');
                if let (Some(open), "struct" | "enum" | "trait" | "union") = (open, kw) {
                    if semi.is_none_or(|semi| open < semi) {
                        let open = name_at + open;
                        body_members(&code[open..block_end(&code, open)], members);
                    }
                }
            }
        }
        for at in word_positions(&code, "impl") {
            let Some(open) = code[at..].find('{').map(|o| at + o) else {
                continue;
            };
            let header = &code[at + 4..open];
            if header.contains(';') || header.contains('(') && !header.contains("for") {
                continue; // `impl Trait` in a signature, not a block
            }
            let body = &code[open..block_end(&code, open)];
            let members = types.entry(impl_self_type(header)).or_default();
            for kw in ["fn", "const", "type"] {
                for pos in word_positions(body, kw) {
                    let rest = &body[pos + kw.len()..];
                    let name = ident_at(rest.trim_start(), 0);
                    if !name.is_empty() {
                        members.insert(name.to_owned());
                    }
                }
            }
        }
    }
    types
}

/// The inline code spans of a markdown text with their line numbers;
/// fenced blocks are skipped, and a span never crosses a blank line.
fn code_spans(text: &str) -> Vec<(usize, String)> {
    let mut fenced = false;
    let prose: Vec<&str> = text
        .lines()
        .map(|line| {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                return "";
            }
            if fenced {
                ""
            } else {
                line
            }
        })
        .collect();
    let mut spans = Vec::new();
    let mut first = 0;
    for n in 0..=prose.len() {
        if !prose.get(n).is_none_or(|line| line.trim().is_empty()) {
            continue;
        }
        let paragraph = prose[first..n].join("\n");
        let parts: Vec<&str> = paragraph.split('`').collect();
        let mut offset = 0;
        for (k, part) in parts.iter().enumerate() {
            if k % 2 == 1 && k + 1 < parts.len() {
                let line = first + 1 + paragraph[..offset].matches('\n').count();
                spans.push((line, (*part).to_owned()));
            }
            offset += part.len() + 1;
        }
        first = n + 1;
    }
    spans
}

/// What in `text` does not resolve: missing paths and stale names.
fn problems_in(text: &str, types: &HashMap<String, HashSet<String>>) -> Vec<String> {
    let mut problems = Vec::new();
    for (line, span) in code_spans(text) {
        let span = span.as_str();
        for prefix in ["crates/", "tests/", "examples/"] {
            for (at, _) in span.match_indices(prefix) {
                let before = at.checked_sub(1).map(|i| span.as_bytes()[i]);
                if before.is_some_and(|c| is_ident(c) || b"/.-".contains(&c)) {
                    continue;
                }
                let len = span[at..]
                    .bytes()
                    .take_while(|&c| is_ident(c) || b"/.-*".contains(&c))
                    .count();
                let path = span[at..at + len].trim_end_matches('.');
                // A glob names its directory; `file.rs:88` names the file.
                let checked = path.split('*').next().unwrap_or(path);
                let checked = checked.rsplit_once(':').map_or(checked, |(p, _)| p);
                if !root().join(checked).exists() {
                    problems.push(format!("line {line}: no path `{path}`"));
                }
            }
        }
        for (at, _) in span.match_indices("::") {
            let ty_start = span[..at]
                .bytes()
                .rposition(|c| !is_ident(c))
                .map_or(0, |i| i + 1);
            let ty = &span[ty_start..at];
            let member = ident_at(span, at + 2);
            if !ty.starts_with(|c: char| c.is_ascii_uppercase())
                || member.is_empty()
                || STD_TYPES.contains(&ty)
            {
                continue;
            }
            match types.get(ty) {
                None => problems.push(format!("line {line}: no type `{ty}` (in `{span}`)")),
                Some(members) if !members.contains(member) => {
                    problems.push(format!("line {line}: `{ty}` has no `{member}`"))
                }
                Some(_) => {}
            }
        }
    }
    problems
}

#[test]
fn every_path_and_type_member_the_docs_name_exists() {
    let types = definitions();
    let mut problems = Vec::new();
    for file in doc_files() {
        let text = fs::read_to_string(&file).expect("read doc");
        let name = file.strip_prefix(root()).unwrap_or(&file).display();
        problems.extend(
            problems_in(&text, &types)
                .into_iter()
                .map(|p| format!("{name} {p}")),
        );
    }
    assert!(problems.is_empty(), "stale docs:\n{}", problems.join("\n"));
}

#[test]
fn the_check_catches_a_stale_name_and_a_missing_path() {
    let types = definitions();
    let text = "A lookup is `BTreeIndex::lookup` in `crates/storage/src/index.rs`.\n\
                `Table::index_on` is gone, and the\n\
                proptests are in `tests/prop.rs`; `Value::total_cmp` stays.\n\
                ```\n`Fenced::ignored` and `tests/nowhere.rs`\n```\n";
    assert_eq!(
        problems_in(text, &types),
        [
            "line 2: `Table` has no `index_on`",
            "line 3: no path `tests/prop.rs`",
        ]
    );
}

/// EXPERIMENTS.md is the account of the paper's tables and figures and of
/// what the system measures now, not a diary: each change's full record
/// goes to CHANGES.md, so the file cannot grow back a section at a time.
#[test]
fn experiments_md_stays_within_600_lines() {
    const MAX_LINES: usize = 600;
    let text = fs::read_to_string(root().join("EXPERIMENTS.md")).expect("read EXPERIMENTS.md");
    let lines = text.lines().count();
    assert!(
        lines <= MAX_LINES,
        "EXPERIMENTS.md has {lines} lines, more than {MAX_LINES}: condense, \
         and keep the per-change record in CHANGES.md"
    );
}
