//! The `smerge` subcommands.
//!
//! Every merging command builds a [`Merger`] from its parsed documents
//! and CLI flags, so the CLI, the daemon and the library all exercise
//! the same code path; `--format json` on `merge`, `stats` and `check`
//! emits the façade's `MergeReport`/`Diagnostic` structures through the
//! hand-rolled serializer in [`crate::json`].

use std::fmt;
use std::io::Write;

use schema_merge_core::{KeyAssignment, MergeError, Merger, SuperkeyFamily};
use schema_merge_text::{
    parse_document, print_schema, print_weak, render_ascii, to_dot, DotOptions, NamedSchema,
};

use crate::json;

/// A CLI failure: message plus a hint at fault (usage vs data).
///
/// Marked `#[non_exhaustive]`; each variant carries a stable
/// [`code`](CliError::code) surfaced in the CLI's error output.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// Bad invocation.
    Usage(String),
    /// I/O problems.
    Io(std::io::Error),
    /// Parsing or merging failed.
    Data(String),
    /// Could not reach the daemon (refused, timed out, unreachable).
    /// Transient: the client retries these for idempotent verbs.
    Connect(String),
    /// The daemon answered, but not in the dot-framed protocol we
    /// speak (malformed status line). Permanent: never retried.
    Protocol(String),
}

impl CliError {
    /// The stable machine-readable code for this error (`E-CLI-…`).
    pub fn code(&self) -> &'static str {
        match self {
            CliError::Usage(_) => "E-CLI-USAGE",
            CliError::Io(_) => "E-CLI-IO",
            CliError::Data(_) => "E-CLI-DATA",
            CliError::Connect(_) => "E-CLI-CONNECT",
            CliError::Protocol(_) => "E-CLI-PROTOCOL",
        }
    }

    /// Whether retrying the same request might succeed. Only
    /// connection-level failures qualify: a daemon that answered —
    /// even with garbage — has made a durable decision about the
    /// request, so `Data`/`Protocol` errors are permanent.
    pub fn is_transient(&self) -> bool {
        matches!(self, CliError::Connect(_))
    }

    /// Wraps a merge failure, embedding its stable code in the message.
    fn merge(context: &str, err: &MergeError) -> CliError {
        CliError::Data(format!("{context} [{}]: {err}", err.code()))
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}\n\n{USAGE}"),
            CliError::Io(err) => write!(f, "{err}"),
            CliError::Data(msg) => write!(f, "{msg}"),
            CliError::Connect(msg) => write!(f, "{msg}"),
            CliError::Protocol(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(err: std::io::Error) -> Self {
        CliError::Io(err)
    }
}

/// Output format selected with `--format` (merge, stats and check).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Format {
    #[default]
    Text,
    Json,
}

/// Strips a `--format <text|json>` flag out of the argument list.
fn split_format<'a>(args: &[&'a String]) -> Result<(Format, Vec<&'a String>), CliError> {
    let mut format = Format::Text;
    let mut rest: Vec<&String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg.as_str() == "--format" {
            format = match iter.next().map(|v| v.as_str()) {
                Some("text") => Format::Text,
                Some("json") => Format::Json,
                other => {
                    return Err(CliError::Usage(format!(
                        "--format expects `text` or `json`, got {}",
                        other.map_or_else(|| "nothing".to_string(), |v| format!("`{v}`"))
                    )))
                }
            };
        } else {
            rest.push(arg);
        }
    }
    Ok((format, rest))
}

/// Rejects a flag left among schema-file arguments. Every command strips
/// the flags it knows before reading its files, so a `-`-prefixed
/// argument that remains is one it does not know — a usage error naming
/// the flag, not a missing file.
fn reject_flags(paths: &[&String]) -> Result<(), CliError> {
    match paths.iter().find(|path| path.starts_with('-')) {
        Some(flag) => Err(CliError::Usage(format!("unknown flag `{flag}`"))),
        None => Ok(()),
    }
}

/// Strips a bare `--trace` flag out of the argument list — phase-level
/// span capture ([`Merger::trace`]).
fn split_trace<'a>(args: &[&'a String]) -> (bool, Vec<&'a String>) {
    let mut trace = false;
    let mut rest: Vec<&String> = Vec::new();
    for arg in args {
        if arg.as_str() == "--trace" {
            trace = true;
        } else {
            rest.push(arg);
        }
    }
    (trace, rest)
}

const USAGE: &str = "\
usage: smerge <command> [args]

commands:
  merge <file>... [--format text|json] [--trace]
                       upper-merge every schema in the files; print the
                       merged schema, its keys and the implicit classes
                       (json: the full MergeReport with plan, provenance
                       and diagnostics; --trace appends one timed span
                       per executed merge pass)
  diff <file>          print the symmetric difference of two schemas
                       (the file must contain exactly two)
  lower <file>...      lower-merge every schema (federated view); print
                       the completed result with participation marks
  check <file>... [--format text|json]
                       validate schemas; report whether each is proper
  explain <file>...    like merge, but print only the implicit-class
                       provenance report
  dot <file> [name]    print Graphviz DOT for one schema (default: first)
  ascii <file> [name]  print an ASCII rendering of one schema
  stats <file>... [--format text|json]
                       print size statistics per schema
  suggest <file>...    propose synonym unifications and flag homonym
                       clashes between the first two schemas (§3)
  rename <map>... -- <file>...
                       apply renames (Old=New for classes, .old=.new for
                       labels) to every schema and print the results
  functional <file>... print the merged schema's functional-model view
                       (canonical arrows p.a ⇀ q, §2)
  ddl <file>...        merge the schemas and emit SQL CREATE TABLE
                       statements (1NF-stratifiable schemas only)
  conform <schema-file> <instance-file>
                       check every instance against the merged schema
  query <schema-file> <instance-file> <path>
                       evaluate a path query (Start.label[Class].label)
                       against an instance of the merged schema
  compose <file>... [--format text|json]
                       federate: each file becomes one member registry
                       (named by its file stem, each document a member)
                       and the supergraph composes them all; prints the
                       composed schema with per-registry contributions,
                       cross-registry `registry/member@vN` origins and
                       H-COMPOSE-* hints (json: the full composed view)
  serve [--port P] [--threads N] [--data-dir DIR] [--snapshot-every K]
        [--trace-log FILE] [file...]
                       run the registry daemon: members publish schema
                       versions over TCP and the canonical merged view
                       is maintained incrementally (files preload
                       members; --port 0 picks an ephemeral port;
                       --threads is accepted and ignored, as every
                       connection gets its own thread and every merge
                       runs on it; --data-dir makes the
                       registry durable — commits are WAL'd and
                       snapshotted there, and restart recovers them;
                       --snapshot-every sets the compaction cadence in
                       records, 0 = manual SNAPSHOT only; --trace-log
                       appends Chrome trace-event JSONL spans for every
                       request the daemon serves)
  client <addr> [--retries N] [--retry-backoff-ms M] <cmd> [args]
                       drive a running daemon: put <name> <file>,
                       get <name>, delete <name>, merged, stats,
                       metrics, list, query <path>, attach <registry>,
                       detach <registry>, compose, supergraph,
                       snapshot, ping, health, shutdown (member names
                       may be namespaced `registry/member` to route to
                       an attached registry; --retries re-sends
                       idempotent reads after connection-level
                       failures, backing off M ms doubled per attempt)
  help                 this message";

/// Entry point shared by `main` and the tests.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let mut iter = args.iter();
    let command = iter.next().map(String::as_str).unwrap_or("help");
    let rest: Vec<&String> = iter.collect();
    match command {
        "merge" => merge_command(&rest, out, false),
        "diff" => diff_command(&rest, out),
        "explain" => merge_command(&rest, out, true),
        "lower" => lower_command(&rest, out),
        "check" => check_command(&rest, out),
        "dot" => render_command(&rest, out, Renderer::Dot),
        "ascii" => render_command(&rest, out, Renderer::Ascii),
        "stats" => stats_command(&rest, out),
        "suggest" => suggest_command(&rest, out),
        "rename" => rename_command(&rest, out),
        "functional" => functional_command(&rest, out),
        "ddl" => ddl_command(&rest, out),
        "conform" => conform_command(&rest, out),
        "query" => query_command(&rest, out),
        "compose" => compose_command(&rest, out),
        "serve" => crate::serve::serve_command(&rest, out),
        "client" => crate::client::client_command(&rest, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

fn load_documents(paths: &[&String]) -> Result<Vec<NamedSchema>, CliError> {
    reject_flags(paths)?;
    if paths.is_empty() {
        return Err(CliError::Usage("expected at least one schema file".into()));
    }
    let mut docs = Vec::new();
    for path in paths {
        let source = std::fs::read_to_string(path.as_str())
            .map_err(|err| CliError::Data(format!("{path}: {err}")))?;
        let parsed =
            parse_document(&source).map_err(|err| CliError::Data(format!("{path}: {err}")))?;
        docs.extend(parsed);
    }
    if docs.is_empty() {
        return Err(CliError::Data("no schemas found in the input files".into()));
    }
    Ok(docs)
}

/// Wraps a supergraph failure, embedding its stable `E-SG-…` code.
fn supergraph_error(context: &str, err: &schema_merge_supergraph::SupergraphError) -> CliError {
    CliError::Data(format!("{context} [{}]: {err}", err.code()))
}

/// `smerge compose` — offline federation: each file becomes one member
/// registry (named by its file stem), each document in it a member, and
/// the supergraph composes them all. The same engine the daemon serves
/// behind `ATTACH`/`COMPOSE`, without a socket.
fn compose_command(args: &[&String], out: &mut dyn Write) -> Result<(), CliError> {
    let (format, rest) = split_format(args)?;
    reject_flags(&rest)?;
    if rest.is_empty() {
        return Err(CliError::Usage(
            "expected at least one schema file (one member registry per file)".into(),
        ));
    }
    let supergraph = schema_merge_supergraph::Supergraph::new();
    for path in &rest {
        let name = std::path::Path::new(path.as_str())
            .file_stem()
            .and_then(|stem| stem.to_str())
            .unwrap_or(path.as_str())
            .to_string();
        let registry = supergraph
            .attach_new(&name)
            .map_err(|err| supergraph_error(path, &err))?;
        let source = std::fs::read_to_string(path.as_str())
            .map_err(|err| CliError::Data(format!("{path}: {err}")))?;
        let docs =
            parse_document(&source).map_err(|err| CliError::Data(format!("{path}: {err}")))?;
        if docs.is_empty() {
            return Err(CliError::Data(format!("{path}: contains no schemas")));
        }
        for doc in docs {
            registry
                .put(doc.name.clone(), doc.schema.schema().clone())
                .map_err(|err| {
                    CliError::Data(format!("{path}: publishing `{}`: {err}", doc.name))
                })?;
        }
    }
    let outcome = supergraph
        .compose()
        .map_err(|err| supergraph_error("compose", &err))?;
    let view = outcome.view;

    if format == Format::Json {
        writeln!(out, "{}", json::compose(&view))?;
        return Ok(());
    }

    let weak = view.proper().as_weak();
    writeln!(
        out,
        "generation={} strategy={} registries={} classes={} arrows={} hints={}",
        view.generation,
        outcome.strategy.as_str(),
        view.members.len(),
        weak.num_classes(),
        weak.num_arrows(),
        view.hints().count()
    )?;
    for member in &view.members {
        writeln!(
            out,
            "registry {} generation={} members={}",
            member.registry, member.generation, member.members
        )?;
    }
    for hint in view.hints() {
        writeln!(out, "hint[{}] {}", hint.code, hint.message)?;
    }
    write!(out, "{}", print_weak("supergraph", weak))?;
    writeln!(out, "// origins:")?;
    for (class, labels) in &view.origins().classes {
        writeln!(out, "//   {class}: {}", labels.join(", "))?;
    }
    Ok(())
}

/// The standard CLI merger: every parsed document is a named annotated
/// input, and every document's key families are contributed to the §5
/// key pass. This is THE code path — `merge`, `explain`, `functional`,
/// `ddl`, `conform` and `query` all build their merges here.
fn build_merger(docs: &[NamedSchema]) -> Merger<'_> {
    let mut merger = Merger::new();
    for doc in docs {
        merger = merger.with_participation_named(doc.name.clone(), &doc.schema);
        for class in doc.keys.keyed_classes() {
            merger = merger.with_keys(class.clone(), doc.keys.family(class));
        }
    }
    merger
}

fn merge_command(
    paths: &[&String],
    out: &mut dyn Write,
    explain_only: bool,
) -> Result<(), CliError> {
    let (format, paths) = split_format(paths)?;
    let (trace, paths) = split_trace(&paths);
    if explain_only && format == Format::Json {
        // `merge --format json` already carries the full implicit-class
        // table; a second, differently-shaped document would fragment the
        // machine-readable surface.
        return Err(CliError::Usage(
            "explain has no JSON form; use `merge --format json` (its \
             `implicit_classes` field is the explain report)"
                .into(),
        ));
    }
    let docs = load_documents(&paths)?;
    let mut merger = build_merger(&docs);
    if trace {
        merger = merger.trace(true);
    }
    let mut report = merger
        .execute()
        .map_err(|err| CliError::merge("merge failed", &err))?;

    if format == Format::Json {
        write!(out, "{}", json::merge_report(&report))?;
        return Ok(());
    }

    if !explain_only {
        let merged = NamedSchema {
            name: "merged".into(),
            schema: report
                .annotated
                .take()
                .expect("annotated inputs produce an annotated result"),
            keys: report.keys.clone(),
        };
        write!(out, "{}", print_schema(&merged))?;
        writeln!(out)?;
    }
    writeln!(
        out,
        "// implicit classes: {}",
        report.implicit.num_implicit()
    )?;
    for info in &report.implicit.implicit {
        writeln!(out, "//   {} introduced below {{", info.class)?;
        for member in &info.members {
            writeln!(out, "//     {member}")?;
        }
        writeln!(out, "//   }} demanded by {}", info.witness)?;
    }
    if let Some(trace) = &report.trace {
        writeln!(out, "// trace:")?;
        for line in trace.render().lines() {
            writeln!(out, "//   {line}")?;
        }
    }
    Ok(())
}

fn diff_command(paths: &[&String], out: &mut dyn Write) -> Result<(), CliError> {
    let docs = load_documents(paths)?;
    if docs.len() != 2 {
        return Err(CliError::Data(format!(
            "diff needs exactly two schemas, found {}",
            docs.len()
        )));
    }
    let d = schema_merge_core::diff(docs[0].schema.schema(), docs[1].schema.schema());
    writeln!(
        out,
        "// - only in {}; + only in {}",
        docs[0].name, docs[1].name
    )?;
    if d.is_empty() {
        writeln!(out, "// schemas are information-equal")?;
    } else {
        write!(out, "{d}")?;
        if d.left_is_subschema() {
            writeln!(out, "// {} ⊑ {}", docs[0].name, docs[1].name)?;
        } else if d.right_is_subschema() {
            writeln!(out, "// {} ⊑ {}", docs[1].name, docs[0].name)?;
        }
    }
    Ok(())
}

fn lower_command(paths: &[&String], out: &mut dyn Write) -> Result<(), CliError> {
    let docs = load_documents(paths)?;
    let mut merger = Merger::new().lower();
    for doc in &docs {
        merger = merger.with_participation_named(doc.name.clone(), &doc.schema);
    }
    let report = merger
        .execute()
        .map_err(|err| CliError::merge("lower completion failed", &err))?;
    let lower = report.lower.expect("lower mode fills the union report");
    let named = NamedSchema {
        name: "lower-merged".into(),
        schema: report.annotated.expect("lower mode returns annotations"),
        keys: KeyAssignment::new(),
    };
    write!(out, "{}", print_schema(&named))?;
    writeln!(out)?;
    writeln!(out, "// union classes: {}", lower.unions.len())?;
    for info in &lower.unions {
        writeln!(
            out,
            "//   {} demanded by ({}, {})",
            info.class, info.demanded_by.0, info.demanded_by.1
        )?;
    }
    if !lower.meet_classes.is_empty() {
        writeln!(
            out,
            "// meet fallback classes: {}",
            lower.meet_classes.len()
        )?;
    }
    Ok(())
}

/// One validated document: the JSON row plus the text path's pre-rendered
/// error details, so every validation runs exactly once.
struct CheckedDoc {
    row: json::CheckRow,
    proper_error: Option<String>,
    key_error: Option<String>,
}

fn check_command(paths: &[&String], out: &mut dyn Write) -> Result<(), CliError> {
    let (format, paths) = split_format(paths)?;
    let docs = load_documents(&paths)?;
    let checked: Vec<CheckedDoc> = docs
        .iter()
        .map(|doc| {
            let weak = doc.schema.schema();
            let mut diagnostics = Vec::new();
            let proper_error = match schema_merge_core::ProperSchema::try_new(weak.clone()) {
                Ok(_) => None,
                Err(err) => {
                    diagnostics.push(schema_merge_core::Diagnostic::from(&err));
                    Some(err.to_string())
                }
            };
            let key_error = match doc.keys.validate(weak) {
                Ok(()) => None,
                Err(err) => {
                    let rendered = format!("; keys invalid [{}]: {err}", err.code());
                    diagnostics.push(schema_merge_core::Diagnostic::from(&err));
                    Some(rendered)
                }
            };
            CheckedDoc {
                row: json::CheckRow {
                    name: doc.name.clone(),
                    classes: weak.num_classes(),
                    arrows: weak.num_arrows(),
                    specializations: weak.num_specializations(),
                    proper: proper_error.is_none(),
                    diagnostics,
                },
                proper_error,
                key_error,
            }
        })
        .collect();

    if format == Format::Json {
        let rows: Vec<&json::CheckRow> = checked.iter().map(|c| &c.row).collect();
        write!(out, "{}", json::check(&rows))?;
        return Ok(());
    }
    for doc in &checked {
        let status = match &doc.proper_error {
            None => "proper".to_string(),
            Some(detail) => format!("weak only ({detail})"),
        };
        writeln!(
            out,
            "{}: {} classes, {} arrows, {} — {status}{}",
            doc.row.name,
            doc.row.classes,
            doc.row.arrows,
            plural(doc.row.specializations, "specialization"),
            doc.key_error.as_deref().unwrap_or(""),
        )?;
    }
    Ok(())
}

enum Renderer {
    Dot,
    Ascii,
}

fn render_command(
    paths: &[&String],
    out: &mut dyn Write,
    renderer: Renderer,
) -> Result<(), CliError> {
    let (file, wanted) = match paths {
        [file] => (*file, None),
        [file, name] => (*file, Some(name.as_str())),
        _ => return Err(CliError::Usage("expected <file> [schema-name]".into())),
    };
    let docs = load_documents(&[file])?;
    let doc = match wanted {
        None => &docs[0],
        Some(name) => docs
            .iter()
            .find(|d| d.name == name)
            .ok_or_else(|| CliError::Data(format!("no schema named {name} in {file}")))?,
    };
    match renderer {
        Renderer::Dot => write!(out, "{}", to_dot(doc, &DotOptions::default()))?,
        Renderer::Ascii => write!(out, "{}", render_ascii(doc))?,
    }
    Ok(())
}

fn stats_command(paths: &[&String], out: &mut dyn Write) -> Result<(), CliError> {
    let (format, paths) = split_format(paths)?;
    let docs = load_documents(&paths)?;
    if format == Format::Json {
        write!(out, "{}", json::stats(&docs))?;
        return Ok(());
    }
    writeln!(
        out,
        "{:<20} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>17}",
        "schema", "classes", "isa", "arrows", "opt", "keys", "labels", "hash"
    )?;
    for doc in &docs {
        let weak = doc.schema.schema();
        writeln!(
            out,
            "{:<20} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}  {:016x}",
            doc.name,
            weak.num_classes(),
            weak.num_specializations(),
            weak.num_arrows(),
            doc.schema.num_optional(),
            doc.keys.num_keyed_classes(),
            weak.all_labels().len(),
            weak.content_hash(),
        )?;
    }
    Ok(())
}

fn suggest_command(paths: &[&String], out: &mut dyn Write) -> Result<(), CliError> {
    let docs = load_documents(paths)?;
    if docs.len() < 2 {
        return Err(CliError::Data(format!(
            "suggest needs at least two schemas, found {}",
            docs.len()
        )));
    }
    let (left, right) = (&docs[0], &docs[1]);
    let synonyms =
        schema_merge_core::synonym_candidates(left.schema.schema(), right.schema.schema(), 0.25);
    let homonyms =
        schema_merge_core::homonym_candidates(left.schema.schema(), right.schema.schema(), 0.25);
    writeln!(out, "// comparing {} with {}", left.name, right.name)?;
    if synonyms.is_empty() && homonyms.is_empty() {
        writeln!(out, "// no naming conflicts suggested")?;
        return Ok(());
    }
    for s in &synonyms {
        writeln!(
            out,
            "synonym? {} ~ {} (similarity {:.2}; shared: {})",
            s.left,
            s.right,
            s.similarity,
            s.shared_labels
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join(", "),
        )?;
        writeln!(
            out,
            "  fix: smerge rename {}={} -- <right-file>",
            s.right, s.left
        )?;
    }
    for h in &homonyms {
        writeln!(
            out,
            "homonym? {} (similarity {:.2}; left-only: {}; right-only: {})",
            h.name,
            h.similarity,
            h.left_only
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            h.right_only
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join(", "),
        )?;
        writeln!(
            out,
            "  fix: smerge rename {}={}-2 -- <right-file>",
            h.name, h.name
        )?;
    }
    Ok(())
}

fn rename_command(args: &[&String], out: &mut dyn Write) -> Result<(), CliError> {
    let split = args
        .iter()
        .position(|a| a.as_str() == "--")
        .ok_or_else(|| CliError::Usage("expected `rename <map>... -- <file>...`".into()))?;
    let (maps, files) = args.split_at(split);
    let files = &files[1..];
    if maps.is_empty() {
        return Err(CliError::Usage(
            "expected at least one Old=New mapping".into(),
        ));
    }
    let mut renaming = schema_merge_core::Renaming::new();
    for map in maps {
        let (from, to) = map
            .split_once('=')
            .ok_or_else(|| CliError::Usage(format!("bad mapping `{map}`: expected Old=New")))?;
        if from.is_empty() || to.is_empty() {
            return Err(CliError::Usage(format!("bad mapping `{map}`: empty side")));
        }
        match (from.strip_prefix('.'), to.strip_prefix('.')) {
            (Some(from_label), Some(to_label)) => {
                renaming = renaming.label(from_label, to_label);
            }
            (None, None) => {
                renaming = renaming.class(from, to);
            }
            _ => {
                return Err(CliError::Usage(format!(
                    "bad mapping `{map}`: mixing a class with a .label"
                )))
            }
        }
    }
    let docs = load_documents(files)?;
    for doc in &docs {
        let (renamed, report) = renaming
            .apply(doc.schema.schema())
            .map_err(|err| CliError::Data(format!("{}: rename failed: {err}", doc.name)))?;
        // Keys follow their classes and labels through the renaming.
        let mut keys = KeyAssignment::new();
        for class in doc.keys.keyed_classes() {
            let family = doc.keys.family(class);
            let mapped = SuperkeyFamily::from_keys(family.minimal_keys().map(|key| {
                schema_merge_core::KeySet::new(key.labels().map(|l| renaming.map_label(l)))
            }));
            let target = renaming.map_class(class);
            let existing = keys.family(&target);
            keys.set(target, existing.union(&mapped));
        }
        let named = NamedSchema {
            name: doc.name.clone(),
            schema: schema_merge_core::AnnotatedSchema::all_required(renamed),
            keys,
        };
        write!(out, "{}", print_schema(&named))?;
        writeln!(out)?;
        if !report.unified_classes.is_empty() {
            for group in &report.unified_classes {
                let names: Vec<String> = group.iter().map(|n| n.to_string()).collect();
                writeln!(out, "// unified classes: {}", names.join(" = "))?;
            }
        }
    }
    Ok(())
}

/// Merges every schema in the files into one completed proper schema
/// with its minimal satisfactory key assignment — shared by the
/// `functional`, `ddl`, `conform` and `query` commands.
fn merged_proper(
    paths: &[&String],
) -> Result<(schema_merge_core::ProperSchema, KeyAssignment), CliError> {
    let docs = load_documents(paths)?;
    let report = build_merger(&docs)
        .execute()
        .map_err(|err| CliError::merge("merge failed", &err))?;
    Ok((report.proper, report.keys))
}

fn functional_command(paths: &[&String], out: &mut dyn Write) -> Result<(), CliError> {
    let (proper, _) = merged_proper(paths)?;
    let functional = schema_merge_core::FunctionalSchema::from_proper(&proper);
    writeln!(out, "{functional}")?;
    Ok(())
}

fn ddl_command(paths: &[&String], out: &mut dyn Write) -> Result<(), CliError> {
    let (proper, keys) = merged_proper(paths)?;
    // Infer the 1NF stratification: classes with outgoing arrows are
    // relations, arrow-less classes are attribute domains.
    let weak = proper.as_weak();
    let mut strata = schema_merge_relational::RelStrata::new();
    for class in weak.classes() {
        let stratum = if weak.labels_of(class).is_empty() {
            schema_merge_relational::RelStratum::Domain
        } else {
            schema_merge_relational::RelStratum::Relation
        };
        strata.insert(schema_merge_core::Name::new(class.to_string()), stratum);
    }
    let rel = schema_merge_relational::from_core(weak, &strata)
        .map_err(|err| CliError::Data(format!("schema is not 1NF-stratifiable: {err}")))?
        .with_key_assignment(&keys);
    let types = schema_merge_relational::TypeMap::default();
    write!(out, "{}", schema_merge_relational::to_sql(&rel, &types))?;
    Ok(())
}

fn load_instances(path: &String) -> Result<Vec<schema_merge_text::NamedInstance>, CliError> {
    let source = std::fs::read_to_string(path.as_str())
        .map_err(|err| CliError::Data(format!("{path}: {err}")))?;
    let instances = schema_merge_text::parse_instances(&source)
        .map_err(|err| CliError::Data(format!("{path}: {err}")))?;
    if instances.is_empty() {
        return Err(CliError::Data(format!("{path}: no instances found")));
    }
    Ok(instances)
}

fn conform_command(paths: &[&String], out: &mut dyn Write) -> Result<(), CliError> {
    let [schema_file, instance_file] = paths else {
        return Err(CliError::Usage(
            "expected <schema-file> <instance-file>".into(),
        ));
    };
    let docs = load_documents(&[schema_file])?;
    let report = build_merger(&docs)
        .execute()
        .map_err(|err| CliError::merge("merge failed", &err))?;
    let (proper, keys) = (report.proper, report.keys);
    // The merger transferred the joined participation onto the completed
    // schema, so optional arrows stay optional through completion.
    let completed_annotated = report
        .annotated
        .expect("annotated inputs produce an annotated result");

    let mut failures = 0;
    for named in load_instances(instance_file)? {
        let filled = named.instance.populate_implicit_extents(proper.as_weak());
        let verdict = filled
            .conforms_annotated(&completed_annotated, &proper)
            .and_then(|()| filled.satisfies_keys(&keys));
        match verdict {
            Ok(()) => writeln!(out, "{}: conforms", named.name)?,
            Err(err) => {
                failures += 1;
                writeln!(out, "{}: FAILS — {err}", named.name)?;
            }
        }
    }
    if failures > 0 {
        return Err(CliError::Data(format!(
            "{failures} instance(s) do not conform"
        )));
    }
    Ok(())
}

/// Parses `Start.label[Class].label…` into a path query. Labels and
/// class restrictions must not contain `.` or `[` (use the library API
/// for exotic names). Shared with the daemon's `QUERY` command.
pub(crate) fn parse_path_query(text: &str) -> Result<schema_merge_instance::PathQuery, CliError> {
    let bad = |msg: &str| CliError::Usage(format!("bad path `{text}`: {msg}"));
    let mut rest = text;
    let start_end = rest.find(['.', '[', ']']).unwrap_or(rest.len());
    let start = &rest[..start_end];
    if start.is_empty() {
        return Err(bad("empty starting class"));
    }
    let mut query = schema_merge_instance::PathQuery::extent(
        schema_merge_core::Class::from_origin_syntax(start),
    );
    rest = &rest[start_end..];
    while !rest.is_empty() {
        if let Some(after) = rest.strip_prefix('.') {
            let end = after.find(['.', '[', ']']).unwrap_or(after.len());
            let label = &after[..end];
            if label.is_empty() {
                return Err(bad("empty label after `.`"));
            }
            query = query.follow(label);
            rest = &after[end..];
        } else if let Some(after) = rest.strip_prefix('[') {
            let end = after
                .find(']')
                .ok_or_else(|| bad("unterminated `[` restriction"))?;
            let class = &after[..end];
            if class.is_empty() {
                return Err(bad("empty class in `[]`"));
            }
            query = query.restrict(schema_merge_core::Class::from_origin_syntax(class));
            rest = &after[end + 1..];
        } else {
            return Err(bad("expected `.label` or `[Class]`"));
        }
    }
    Ok(query)
}

fn query_command(paths: &[&String], out: &mut dyn Write) -> Result<(), CliError> {
    let [schema_file, instance_file, path_text] = paths else {
        return Err(CliError::Usage(
            "expected <schema-file> <instance-file> <path>".into(),
        ));
    };
    let (proper, _) = merged_proper(&[schema_file])?;
    let query = parse_path_query(path_text)?;
    for named in load_instances(instance_file)? {
        let filled = named.instance.populate_implicit_extents(proper.as_weak());
        let result = query.eval(&filled);
        let rendered = named.render_objects(result.iter());
        writeln!(
            out,
            "{} ({} result(s)): {}",
            named.name,
            rendered.len(),
            rendered.join(", ")
        )?;
    }
    Ok(())
}

fn plural(n: usize, word: &str) -> String {
    if n == 1 {
        format!("{n} {word}")
    } else {
        format!("{n} {word}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, contents: &str) -> String {
        let dir = std::env::temp_dir().join("smerge-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn run_ok(args: &[String]) -> String {
        let mut out = Vec::new();
        run(args, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    fn args(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn compose_federates_files_as_registries() {
        let f1 = write_temp(
            "compose-inventory.sm",
            "schema parts { Part --price--> money; }",
        );
        let f2 = write_temp(
            "compose-sales.sm",
            "schema orders { Order --item--> Part; }",
        );
        let text = run_ok(&args(&["compose", &f1, &f2]));
        assert!(
            text.contains("strategy=full registries=2 classes=3"),
            "{text}"
        );
        assert!(
            text.contains("registry compose-inventory generation=1 members=1"),
            "{text}"
        );
        assert!(text.contains("schema supergraph {"), "{text}");
        assert!(
            text.contains("//   Part: compose-inventory/parts@v1, compose-sales/orders@v1"),
            "{text}"
        );
        assert!(
            text.ends_with(
                "}\n\
                 // origins:\n\
                 //   Order: compose-sales/orders@v1\n\
                 //   Part: compose-inventory/parts@v1, compose-sales/orders@v1\n\
                 //   money: compose-inventory/parts@v1\n"
            ),
            "{text}"
        );
    }

    #[test]
    fn compose_json_carries_origins_and_hints() {
        let f1 = write_temp("compose-a.sm", "schema shared { Dog --age--> int; }");
        let f2 = write_temp("compose-b.sm", "schema shared { Dog --name--> str; }");
        let text = run_ok(&args(&["compose", &f1, &f2, "--format", "json"]));
        assert!(text.contains("\"command\": \"compose\""), "{text}");
        assert!(text.contains("\"strategy\": \"full\""), "{text}");
        assert!(
            text.contains("\"origins\": [\"compose-a/shared@v1\", \"compose-b/shared@v1\"]"),
            "{text}"
        );
        // Both registries publish a member named `shared` — the
        // collision hint fires and rides in the diagnostics array.
        assert!(text.contains("\"code\": \"H-COMPOSE-COLLISION\""), "{text}");
        assert!(text.contains("\"severity\": \"hint\""), "{text}");
        let origins = concat!(
            "  \"origins\": {\n",
            "    \"classes\": [",
            "{\"class\": \"Dog\", \"origins\": [\"compose-a/shared@v1\", \"compose-b/shared@v1\"]}, ",
            "{\"class\": \"int\", \"origins\": [\"compose-a/shared@v1\"]}, ",
            "{\"class\": \"str\", \"origins\": [\"compose-b/shared@v1\"]}],\n",
            "    \"arrows\": [",
            "{\"arrow\": [\"Dog\", \"age\", \"int\"], \"origins\": [\"compose-a/shared@v1\"]}, ",
            "{\"arrow\": [\"Dog\", \"name\", \"str\"], \"origins\": [\"compose-b/shared@v1\"]}],\n",
            "    \"implicit\": []\n",
            "  },\n",
        );
        assert!(text.contains(origins), "{text}");
    }

    /// One file composes to its registry's committed view. The text and
    /// JSON documents are pinned byte for byte, merger diagnostics
    /// (`I-BASE-REUSED`, `I-IMPLICIT-CLASSES`) included.
    #[test]
    fn compose_of_one_file_prints_the_pinned_documents() {
        let f = write_temp(
            "compose-solo.sm",
            "schema one { C --f--> B1; Dog --age--> int; }\n\
             schema two { C --f--> B2; Guide-dog => Dog; }\n",
        );
        let text = run_ok(&args(&["compose", &f]));
        let expected_text = concat!(
            "generation=2 strategy=incremental registries=1 classes=7 arrows=5 hints=0\n",
            "registry compose-solo generation=2 members=2\n",
            "schema supergraph {\n",
            "    class B1;\n",
            "    class B2;\n",
            "    class C;\n",
            "    class Dog;\n",
            "    class Guide-dog;\n",
            "    class int;\n",
            "    class {B1,B2};\n",
            "    Guide-dog => Dog;\n",
            "    {B1,B2} => B1;\n",
            "    {B1,B2} => B2;\n",
            "    C --f--> B1;\n",
            "    C --f--> B2;\n",
            "    C --f--> {B1,B2};\n",
            "    Dog --age--> int;\n",
            "    Guide-dog --age--> int;\n",
            "}\n",
            "// origins:\n",
            "//   B1: compose-solo/one@v1\n",
            "//   B2: compose-solo/two@v1\n",
            "//   C: compose-solo/one@v1, compose-solo/two@v1\n",
            "//   Dog: compose-solo/one@v1, compose-solo/two@v1\n",
            "//   Guide-dog: compose-solo/two@v1\n",
            "//   int: compose-solo/one@v1\n",
        );
        assert_eq!(text, expected_text);
        let json = run_ok(&args(&["compose", &f, "--format", "json"]));
        let expected_json = concat!(
            "{\n",
            "  \"command\": \"compose\",\n",
            "  \"generation\": 2,\n",
            "  \"strategy\": \"incremental\",\n",
            "  \"registries\": [{\"registry\": \"compose-solo\", \"generation\": 2, \"members\": 2}],\n",
            "  \"schema\": {\n",
            "      \"classes\": [\"B1\", \"B2\", \"C\", \"Dog\", \"Guide-dog\", \"int\", \"{B1,B2}\"],\n",
            "      \"specializations\": [[\"Guide-dog\", \"Dog\"], [\"{B1,B2}\", \"B1\"], [\"{B1,B2}\", \"B2\"]],\n",
            "      \"arrows\": [[\"C\", \"f\", \"B1\", \"required\"], [\"C\", \"f\", \"B2\", \"required\"], [\"C\", \"f\", \"{B1,B2}\", \"required\"], [\"Dog\", \"age\", \"int\", \"required\"], [\"Guide-dog\", \"age\", \"int\", \"required\"]],\n",
            "      \"keys\": [],\n",
            "      \"content_hash\": \"157c30f3fe9ef045\"\n",
            "    },\n",
            "  \"origins\": {\n",
            "    \"classes\": [{\"class\": \"B1\", \"origins\": [\"compose-solo/one@v1\"]}, {\"class\": \"B2\", \"origins\": [\"compose-solo/two@v1\"]}, {\"class\": \"C\", \"origins\": [\"compose-solo/one@v1\", \"compose-solo/two@v1\"]}, {\"class\": \"Dog\", \"origins\": [\"compose-solo/one@v1\", \"compose-solo/two@v1\"]}, {\"class\": \"Guide-dog\", \"origins\": [\"compose-solo/two@v1\"]}, {\"class\": \"int\", \"origins\": [\"compose-solo/one@v1\"]}],\n",
            "    \"arrows\": [{\"arrow\": [\"C\", \"f\", \"B1\"], \"origins\": [\"compose-solo/one@v1\"]}, {\"arrow\": [\"C\", \"f\", \"B2\"], \"origins\": [\"compose-solo/two@v1\"]}, {\"arrow\": [\"Dog\", \"age\", \"int\"], \"origins\": [\"compose-solo/one@v1\"]}],\n",
            "    \"implicit\": [{\"class\": \"{B1,B2}\", \"origins\": [\"compose-solo/one@v1\", \"compose-solo/two@v1\"]}]\n",
            "  },\n",
            "  \"diagnostics\": [{\"severity\": \"info\", \"code\": \"I-BASE-REUSED\", \"message\": \"reused cached compiled input(s) of 6 classes; only 0 input(s) interned\"}, {\"severity\": \"info\", \"code\": \"I-IMPLICIT-CLASSES\", \"message\": \"completion introduced 1 implicit class(es)\", \"origin\": {\"classes\": [\"{B1,B2}\"]}}]\n",
            "}\n",
        );
        assert_eq!(json, expected_json);
    }

    #[test]
    fn compose_requires_input_files() {
        let mut out = Vec::new();
        let err = run(&args(&["compose"]), &mut out).unwrap_err();
        assert_eq!(err.code(), "E-CLI-USAGE");
    }

    #[test]
    fn help_prints_usage() {
        let text = run_ok(&args(&["help"]));
        assert!(text.contains("usage: smerge"));
        let default = run_ok(&[]);
        assert!(default.contains("usage: smerge"));
    }

    #[test]
    fn unknown_command_is_usage_error() {
        let mut out = Vec::new();
        let err = run(&args(&["frobnicate"]), &mut out).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn merge_two_files() {
        let f1 = write_temp("m1.sm", "schema A { C --a--> B1; }");
        let f2 = write_temp("m2.sm", "schema B { C --a--> B2; key C {a}; }");
        let text = run_ok(&args(&["merge", &f1, &f2]));
        assert!(text.contains("{B1,B2}"), "implicit class appears: {text}");
        assert!(text.contains("// implicit classes: 1"));
        assert!(text.contains("key C {a};"));
    }

    #[test]
    fn unknown_flags_among_schema_files_are_usage_errors() {
        let file = write_temp("uf1.sm", "schema A { C --a--> B1; }");
        let f = file.as_str();
        for argv in [
            vec!["merge", "--threads", "4", f],
            vec!["explain", f, "--bogus"],
            vec!["compose", "--threads", "2", f],
            vec!["check", "--bogus", f],
            vec!["dot", "--bogus"],
        ] {
            let mut out = Vec::new();
            let err = run(&args(&argv), &mut out).unwrap_err();
            assert_eq!(err.code(), "E-CLI-USAGE", "{argv:?}: {err}");
            let flag = argv.iter().find(|arg| arg.starts_with("--")).unwrap();
            assert!(
                err.to_string().contains(&format!("unknown flag `{flag}`")),
                "{argv:?}: {err}"
            );
        }
    }

    #[test]
    fn merge_trace_prints_one_span_per_pass() {
        let f1 = write_temp("tr1.sm", "schema A { C --a--> B1; }");
        let f2 = write_temp("tr2.sm", "schema B { C --a--> B2; }");
        let plain = run_ok(&args(&["merge", &f1, &f2]));
        let traced = run_ok(&args(&["merge", "--trace", &f1, &f2]));
        let (body, trace) = traced.split_once("// trace:\n").expect("trace section");
        assert_eq!(plain, body, "tracing never changes the merge output");
        assert!(trace.contains("//   merge "), "root span: {trace}");
        assert!(trace.contains("//     join "), "join pass: {trace}");
        assert!(
            trace.contains("//     completion "),
            "completion pass: {trace}"
        );
        assert!(trace.contains("//     participation-transfer "));
    }

    #[test]
    fn merge_trace_rides_in_the_json_report() {
        let f1 = write_temp("trj1.sm", "schema A { C --a--> B1; }");
        let f2 = write_temp("trj2.sm", "schema B { C --a--> B2; }");
        let traced = run_ok(&args(&["merge", "--trace", "--format", "json", &f1, &f2]));
        assert!(traced.contains("\"trace\": ["));
        assert!(traced.contains("\"name\": \"merge\""));
        assert!(traced.contains("\"name\": \"join\""));
        assert!(traced.contains("\"duration_ns\": "));
        let plain = run_ok(&args(&["merge", "--format", "json", &f1, &f2]));
        assert!(
            !plain.contains("\"trace\""),
            "no trace field without --trace"
        );
    }

    #[test]
    fn explain_only_prints_report() {
        let f1 = write_temp("e1.sm", "schema A { C --a--> B1; }");
        let f2 = write_temp("e2.sm", "schema B { C --a--> B2; }");
        let text = run_ok(&args(&["explain", &f1, &f2]));
        assert!(!text.contains("schema merged"));
        assert!(text.contains("demanded by C --a-->"));
    }

    #[test]
    fn merge_format_json_emits_the_report() {
        let f1 = write_temp("mj1.sm", "schema A { C --a--> B1; }");
        let f2 = write_temp("mj2.sm", "schema B { C --a--> B2; key C {a}; }");
        let text = run_ok(&args(&["merge", "--format", "json", &f1, &f2]));
        assert!(text.contains("\"command\": \"merge\""), "{text}");
        assert!(text.contains("\"engine\": \"compiled\""), "{text}");
        assert!(
            text.contains("\"passes\": [\"join\", \"completion\", \"key-assignment\", \"participation-transfer\"]"),
            "{text}"
        );
        assert!(text.contains("\"class\": \"{B1,B2}\""), "{text}");
        assert!(text.contains("\"members\": [\"B1\", \"B2\"]"), "{text}");
        assert!(text.contains("\"name\": \"A\""), "{text}");
        assert!(text.contains("\"code\": \"I-IMPLICIT-CLASSES\""), "{text}");
        assert!(text.contains("\"keys\": [{\"class\": \"C\""), "{text}");
        // Balanced braces/brackets: crude structural sanity ({B1,B2}
        // class names inside string literals are themselves balanced).
        assert_eq!(
            text.matches('{').count(),
            text.matches('}').count(),
            "{text}"
        );
        assert_eq!(
            text.matches('[').count(),
            text.matches(']').count(),
            "{text}"
        );
    }

    /// The JSON report of a merge with participation marks, pinned byte
    /// for byte: `Guide-dog` inherits the optional `chip` arrow, and the
    /// required `home` arrows demand the implicit class
    /// `{House,Kennel}`, whose arrow stays required.
    #[test]
    fn merge_json_of_inherited_optional_and_implicit_arrows_is_pinned() {
        let f = write_temp(
            "mj-golden.sm",
            "schema kennel { Dog --chip?--> int; Dog --age--> int; Guide-dog => Dog; }\n\
             schema city { Lives --home--> House; Lives --home--> Kennel; Lives --occ--> Dog; }\n",
        );
        let json = run_ok(&args(&["merge", "--format", "json", &f]));
        let expected = concat!(
            "{\n",
            "  \"command\": \"merge\",\n",
            "  \"plan\": {\"mode\": \"upper\", \"engine\": \"compiled\", \"passes\": [\"join\", \"completion\", \"participation-transfer\"], \"inputs\": 2, \"assertions\": 0, \"reuses_base\": false, \"estimated_classes\": 7, \"estimated_arrows\": 7, \"estimated_spec_pairs\": 1, \"work_units\": 16},\n",
            "  \"result\": {\n",
            "      \"classes\": [\"Dog\", \"Guide-dog\", \"House\", \"Kennel\", \"Lives\", \"int\", \"{House,Kennel}\"],\n",
            "      \"specializations\": [[\"Guide-dog\", \"Dog\"], [\"{House,Kennel}\", \"House\"], [\"{House,Kennel}\", \"Kennel\"]],\n",
            "      \"arrows\": [[\"Dog\", \"age\", \"int\", \"required\"], [\"Dog\", \"chip\", \"int\", \"optional\"], [\"Guide-dog\", \"age\", \"int\", \"required\"], [\"Guide-dog\", \"chip\", \"int\", \"optional\"], [\"Lives\", \"home\", \"House\", \"required\"], [\"Lives\", \"home\", \"Kennel\", \"required\"], [\"Lives\", \"home\", \"{House,Kennel}\", \"required\"], [\"Lives\", \"occ\", \"Dog\", \"required\"]],\n",
            "      \"keys\": [],\n",
            "      \"content_hash\": \"8e57783a2ca3b7e2\"\n",
            "    },\n",
            "  \"implicit_classes\": [{\"class\": \"{House,Kennel}\", \"members\": [\"House\", \"Kennel\"], \"witness\": \"Lives --home-->\"}],\n",
            "  \"provenance\": [{\"index\": 0, \"name\": \"kennel\", \"classes\": 3, \"arrows\": 4, \"specializations\": 1, \"optional_arrows\": 2, \"content_hash\": \"bfa983a4e79d965e\"}, {\"index\": 1, \"name\": \"city\", \"classes\": 4, \"arrows\": 3, \"specializations\": 0, \"optional_arrows\": 0, \"content_hash\": \"17fcdf6ae3a6e262\"}],\n",
            "  \"diagnostics\": [{\"severity\": \"info\", \"code\": \"I-IMPLICIT-CLASSES\", \"message\": \"completion introduced 1 implicit class(es)\", \"origin\": {\"classes\": [\"{House,Kennel}\"]}}]\n",
            "}\n",
        );
        assert_eq!(json, expected);
    }

    /// The text and JSON forms of a merge mark the same arrows optional:
    /// `chip` is optional on `Dog` and on the inheriting `Guide-dog`.
    #[test]
    fn merge_text_and_json_agree_on_every_arrow_mark() {
        let f = write_temp(
            "mt-marks.sm",
            "schema A { Dog --chip?--> int; Dog --age--> int; }\n\
             schema B { Guide-dog => Dog; }\n",
        );
        let text = run_ok(&args(&["merge", &f]));
        assert!(text.contains("    Dog --chip?--> int;\n"), "{text}");
        assert!(text.contains("    Guide-dog --chip?--> int;\n"), "{text}");
        let json = run_ok(&args(&["merge", "--format", "json", &f]));
        let mut arrows = 0;
        for line in text.lines().filter(|line| line.contains("--> ")) {
            let line = line.trim().trim_end_matches(';');
            let (src, rest) = line.split_once(" --").expect("an arrow line");
            let (label, tgt) = rest.split_once("--> ").expect("an arrow line");
            let (label, mark) = match label.strip_suffix('?') {
                Some(label) => (label, "optional"),
                None => (label, "required"),
            };
            let entry = format!("[\"{src}\", \"{label}\", \"{tgt}\", \"{mark}\"]");
            assert!(json.contains(&entry), "{entry} is not in {json}");
            arrows += 1;
        }
        assert_eq!(arrows, 4, "{text}");
        assert_eq!(
            json.matches("\"required\"]").count() + json.matches("\"optional\"]").count(),
            arrows,
            "{json}"
        );
    }

    #[test]
    fn stats_format_json_emits_rows() {
        let f = write_temp("sj1.sm", "schema S { Dog --age--> int; key Dog {age}; }");
        let text = run_ok(&args(&["stats", "--format", "json", &f]));
        assert!(text.contains("\"command\": \"stats\""), "{text}");
        assert!(text.contains("\"name\": \"S\""), "{text}");
        assert!(text.contains("\"keyed_classes\": 1"), "{text}");
        let expected = schema_merge_core::WeakSchema::builder()
            .arrow("Dog", "age", "int")
            .build()
            .unwrap()
            .content_hash();
        assert!(
            text.contains(&format!("\"content_hash\": \"{expected:016x}\"")),
            "{text}"
        );
    }

    #[test]
    fn check_format_json_carries_diagnostic_codes() {
        let f = write_temp(
            "cj1.sm",
            "schema Good { Dog --age--> int; }\nschema Bad { C --a--> B1; C --a--> B2; }",
        );
        let text = run_ok(&args(&["check", "--format", "json", &f]));
        assert!(text.contains("\"command\": \"check\""), "{text}");
        assert!(text.contains("\"proper\": true"), "{text}");
        assert!(text.contains("\"proper\": false"), "{text}");
        assert!(
            text.contains("\"code\": \"E-SCHEMA-NO-CANONICAL\""),
            "{text}"
        );
    }

    #[test]
    fn explain_rejects_json_format() {
        let f = write_temp("ej1.sm", "schema A { class X; }");
        let mut out = Vec::new();
        let err = run(&args(&["explain", "--format", "json", &f]), &mut out).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("merge --format json"), "{err}");
    }

    #[test]
    fn bad_format_value_is_a_usage_error() {
        let f = write_temp("bf1.sm", "schema A { class X; }");
        let mut out = Vec::new();
        let err = run(&args(&["merge", "--format", "yaml", &f]), &mut out).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        assert_eq!(err.code(), "E-CLI-USAGE");
    }

    #[test]
    fn merge_errors_carry_stable_codes() {
        let f1 = write_temp("ec1.sm", "schema A { X => Y; }");
        let f2 = write_temp("ec2.sm", "schema B { Y => X; }");
        let mut out = Vec::new();
        let err = run(&args(&["merge", &f1, &f2]), &mut out).unwrap_err();
        assert_eq!(err.code(), "E-CLI-DATA");
        assert!(err.to_string().contains("[E-MERGE-INCOMPATIBLE]"), "{err}");
    }

    #[test]
    fn merge_incompatible_files_fails() {
        let f1 = write_temp("i1.sm", "schema A { X => Y; }");
        let f2 = write_temp("i2.sm", "schema B { Y => X; }");
        let mut out = Vec::new();
        let err = run(&args(&["merge", &f1, &f2]), &mut out).unwrap_err();
        assert!(err.to_string().contains("incompatible"));
    }

    #[test]
    fn lower_merge_two_files() {
        let f1 = write_temp("l1.sm", "schema A { Pet --home--> House; }");
        let f2 = write_temp("l2.sm", "schema B { Pet --home--> Kennel; }");
        let text = run_ok(&args(&["lower", &f1, &f2]));
        assert!(text.contains("{House|Kennel}"), "{text}");
        assert!(text.contains("// union classes: 1"));
        assert!(text.contains("--home?-->") || text.contains("--home-->"));
    }

    #[test]
    fn check_reports_properness() {
        let f = write_temp(
            "c1.sm",
            "schema Good { Dog --age--> int; }\nschema Bad { C --a--> B1; C --a--> B2; }",
        );
        let text = run_ok(&args(&["check", &f]));
        assert!(text.contains("Good: "));
        assert!(text.contains("proper"));
        assert!(text.contains("weak only"));
    }

    #[test]
    fn dot_and_ascii_render() {
        let f = write_temp("d1.sm", "schema S { Guide-dog => Dog; Dog --age--> int; }");
        let dot = run_ok(&args(&["dot", &f]));
        assert!(dot.starts_with("digraph"));
        let ascii = run_ok(&args(&["ascii", &f, "S"]));
        assert!(ascii.contains("== schema S =="));

        let mut out = Vec::new();
        let err = run(&args(&["dot", &f, "Nope"]), &mut out).unwrap_err();
        assert!(err.to_string().contains("no schema named"));
    }

    #[test]
    fn stats_formats_table_with_content_hash() {
        let f = write_temp("s1.sm", "schema S { Dog --age--> int; key Dog {age}; }");
        let text = run_ok(&args(&["stats", &f]));
        assert!(text.contains("schema"));
        assert!(text.contains("S"));
        assert!(text.contains("hash"), "{text}");
        // The canonical content hash appears, and is stable across runs
        // and declaration orders.
        let expected = schema_merge_core::WeakSchema::builder()
            .arrow("Dog", "age", "int")
            .build()
            .unwrap()
            .content_hash();
        assert!(text.contains(&format!("{expected:016x}")), "{text}");
    }

    #[test]
    fn diff_two_schemas() {
        let f = write_temp(
            "diff1.sm",
            "schema A { Dog --age--> int; }\nschema B { Dog --age--> int; Dog --name--> text; }",
        );
        let text = run_ok(&args(&["diff", &f]));
        assert!(text.contains("+ Dog --name--> text;"), "{text}");
        assert!(text.contains("A ⊑ B"));

        let g = write_temp("diff2.sm", "schema A { class X; }");
        let mut out = Vec::new();
        let err = run(&args(&["diff", &g]), &mut out).unwrap_err();
        assert!(err.to_string().contains("exactly two"));
    }

    #[test]
    fn missing_file_is_reported() {
        let mut out = Vec::new();
        let err = run(&args(&["merge", "/nonexistent/xyz.sm"]), &mut out).unwrap_err();
        assert!(matches!(err, CliError::Data(_)));
    }

    #[test]
    fn suggest_finds_synonyms_and_homonyms() {
        let f = write_temp(
            "sg1.sm",
            "schema A { Dog --owner--> Person; Dog --kind--> breed; \
             Chip --implanted-in--> Dog; }\n\
             schema B { Hound --owner--> Person; Hound --kind--> breed; \
             Chip --fried-at--> Temp; }",
        );
        let text = run_ok(&args(&["suggest", &f]));
        assert!(text.contains("synonym? Dog ~ Hound"), "{text}");
        assert!(text.contains("homonym? Chip"), "{text}");
        assert!(text.contains("smerge rename Hound=Dog"), "{text}");
    }

    #[test]
    fn suggest_reports_clean_pairs() {
        let f = write_temp(
            "sg2.sm",
            "schema A { Dog --age--> int; }\nschema B { Dog --age--> int; }",
        );
        let text = run_ok(&args(&["suggest", &f]));
        assert!(text.contains("no naming conflicts suggested"), "{text}");

        let single = write_temp("sg3.sm", "schema A { class X; }");
        let mut out = Vec::new();
        let err = run(&args(&["suggest", &single]), &mut out).unwrap_err();
        assert!(err.to_string().contains("at least two"));
    }

    #[test]
    fn rename_applies_class_and_label_maps() {
        let f = write_temp(
            "rn1.sm",
            "schema A { Hound --called--> text; key Hound {called}; }",
        );
        let text = run_ok(&args(&["rename", "Hound=Dog", ".called=.name", "--", &f]));
        assert!(text.contains("Dog --name--> text;"), "{text}");
        assert!(text.contains("key Dog {name};"), "{text}");
        assert!(!text.contains("Hound"), "{text}");
    }

    #[test]
    fn rename_reports_unifications() {
        let f = write_temp(
            "rn2.sm",
            "schema A { GS --advisor--> Faculty; Student --name--> text; }",
        );
        let text = run_ok(&args(&["rename", "GS=Student", "--", &f]));
        assert!(text.contains("// unified classes: GS = Student"), "{text}");
        assert!(text.contains("Student --advisor--> Faculty;"), "{text}");
    }

    #[test]
    fn functional_prints_canonical_arrows() {
        let f = write_temp(
            "fn1.sm",
            "schema A { Dog --age--> int; }\nschema B { Dog --kind--> breed; }",
        );
        let text = run_ok(&args(&["functional", &f]));
        assert!(text.contains("Dog.age ⇀ int"), "{text}");
        assert!(text.contains("Dog.kind ⇀ breed"), "{text}");
    }

    #[test]
    fn ddl_emits_create_tables_with_keys() {
        let f = write_temp(
            "ddl1.sm",
            "schema A { Person --SS#--> int; Person --name--> string; key Person {SS#}; }",
        );
        let text = run_ok(&args(&["ddl", &f]));
        assert!(text.contains("CREATE TABLE \"Person\""), "{text}");
        assert!(text.contains("\"SS#\" INTEGER"), "{text}");
        assert!(text.contains("PRIMARY KEY (\"SS#\")"), "{text}");
    }

    #[test]
    fn ddl_rejects_non_1nf_schemas() {
        // A relation-to-relation arrow is not first normal form.
        let f = write_temp(
            "ddl2.sm",
            "schema A { Dog --owner--> Person; Person --name--> s; }",
        );
        let mut out = Vec::new();
        let err = run(&args(&["ddl", &f]), &mut out).unwrap_err();
        assert!(err.to_string().contains("not 1NF-stratifiable"), "{err}");
    }

    #[test]
    fn conform_checks_instances() {
        let schema = write_temp(
            "cf1.sm",
            "schema S { Dog --name--> string; Guide-dog => Dog; }",
        );
        let good = write_temp(
            "cf1.smi",
            "instance ok { n => string; rex => Dog; rex --name--> n; }",
        );
        let text = run_ok(&args(&["conform", &schema, &good]));
        assert!(text.contains("ok: conforms"), "{text}");

        // A guide dog missing the required name fails.
        let bad = write_temp("cf2.smi", "instance bad { rex => Guide-dog; rex => Dog; }");
        let mut out = Vec::new();
        let err = run(&args(&["conform", &schema, &bad]), &mut out).unwrap_err();
        let printed = String::from_utf8(out).unwrap();
        assert!(printed.contains("bad: FAILS"), "{printed}");
        assert!(err.to_string().contains("do not conform"));
    }

    /// An instance that every input accepts conforms to their merge:
    /// completion's arrow from X to the implicit class {B,C} is optional
    /// like the two `l`-arrows it stands for.
    #[test]
    fn conform_keeps_completion_arrows_of_optional_attributes_optional() {
        let schema = write_temp(
            "cf-opt.sm",
            "schema A { X --l?--> B; }\nschema C { X --l?--> C; }\n",
        );
        let lonely = write_temp("cf-opt.smi", "instance lonely { x => X; }");
        let text = run_ok(&args(&["conform", &schema, &lonely]));
        assert_eq!(text, "lonely: conforms\n");
        let json = run_ok(&args(&["merge", "--format", "json", &schema]));
        assert!(
            json.contains("[\"X\", \"l\", \"{B,C}\", \"optional\"]"),
            "{json}"
        );
    }

    #[test]
    fn query_evaluates_paths_and_prints_names() {
        let schema = write_temp(
            "q1.sm",
            "schema S { Dog --owner--> Person; Guide-dog => Dog; }",
        );
        let inst = write_temp(
            "q1.smi",
            "instance shelter { ann => Person; rex => Dog; rex => Guide-dog; \
             fido => Dog; rex --owner--> ann; }",
        );
        let text = run_ok(&args(&["query", &schema, &inst, "Dog.owner"]));
        assert!(text.contains("shelter (1 result(s)): ann"), "{text}");
        let text = run_ok(&args(&["query", &schema, &inst, "Dog[Guide-dog]"]));
        assert!(text.contains("rex"), "{text}");
        assert!(!text.contains("fido"), "{text}");
    }

    #[test]
    fn query_reaches_implicit_class_extents() {
        // Merged schema with an implicit class: the query can restrict
        // to {B1,B2} and the extent is populated from the origins.
        let schema = write_temp(
            "q2.sm",
            "schema A { C => A1; C => A2; }\nschema B { A1 --a--> B1; A2 --a--> B2; }",
        );
        let inst = write_temp(
            "q2.smi",
            "instance i { v => B1; v => B2; c => C; c => A1; c => A2; c --a--> v; }",
        );
        let text = run_ok(&args(&["query", &schema, &inst, "C.a[{B1,B2}]"]));
        assert!(text.contains("v"), "{text}");
    }

    #[test]
    fn path_parse_errors() {
        for bad in ["", ".x", "Dog.", "Dog[", "Dog[]", "Dog]x"] {
            assert!(parse_path_query(bad).is_err(), "`{bad}` should fail");
        }
        let q = parse_path_query("Dog.owner[Person].home").unwrap();
        assert_eq!(q.to_string(), "Dog.owner[Person].home");
    }

    #[test]
    fn rename_usage_errors() {
        let f = write_temp("rn3.sm", "schema A { class X; }");
        for bad in [
            args(&["rename", "A=B", &f]),        // missing --
            args(&["rename", "--", &f]),         // no mappings
            args(&["rename", "A-B", "--", &f]),  // malformed
            args(&["rename", ".a=B", "--", &f]), // mixed
            args(&["rename", "=B", "--", &f]),   // empty side
        ] {
            let mut out = Vec::new();
            let err = run(&bad, &mut out).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?}");
        }
    }
}
