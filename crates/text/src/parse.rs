//! The DSL parser: tokens → annotated schemas with key assignments
//! ([`parse_document`]), or a `PUT` payload → the one weak schema its
//! blocks join to ([`parse_payload`]). Both feed schema items through
//! one grammar (`parse_block`) into a `Declarations` sink.

use std::{fmt, mem};

use schema_merge_core::lower::{AnnotatedSchema, AnnotatedSchemaBuilder};
use schema_merge_core::{
    Class, KeyAssignment, KeySet, MergeError, Merger, SchemaBuilder, SchemaError, WeakSchema,
};

use crate::token::{lex, LexError, Token, TokenKind};

/// A schema as written in a document: its name, the (annotated) graph and
/// any key declarations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedSchema {
    /// The `schema <name>` header.
    pub name: String,
    /// The parsed schema (arrows marked `?` are participation `0/1`).
    pub schema: AnnotatedSchema,
    /// The `key` declarations.
    pub keys: KeyAssignment,
}

/// A parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Lexing failed.
    Lex(LexError),
    /// Unexpected token (or end of input).
    Unexpected {
        /// What was found, or `None` at end of input.
        found: Option<TokenKind>,
        /// What the parser was looking for.
        expected: String,
        /// 1-based source line.
        line: usize,
    },
    /// The schema body was parsed but is not a valid schema (e.g. cyclic
    /// isa declarations).
    Invalid {
        /// The schema's name.
        schema: String,
        /// The underlying error.
        error: SchemaError,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(err) => write!(f, "{err}"),
            ParseError::Unexpected {
                found,
                expected,
                line,
            } => match found {
                Some(kind) => write!(f, "line {line}: expected {expected}, found {kind}"),
                None => write!(f, "line {line}: expected {expected}, found end of input"),
            },
            ParseError::Invalid { schema, error } => {
                write!(f, "schema {schema} is invalid: {error}")
            }
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Lex(err) => Some(err),
            ParseError::Invalid { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<LexError> for ParseError {
    fn from(err: LexError) -> Self {
        ParseError::Lex(err)
    }
}

pub(crate) struct Parser {
    pub(crate) tokens: Vec<Token>,
    pub(crate) position: usize,
}

impl Parser {
    pub(crate) fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.position).map(|t| &t.kind)
    }

    pub(crate) fn line(&self) -> usize {
        self.tokens
            .get(self.position)
            .or_else(|| self.tokens.last())
            .map(|t| t.line)
            .unwrap_or(1)
    }

    /// Takes the current token's kind and moves past it. The parser
    /// never looks back, so the kind is moved out, not cloned; the token
    /// keeps its line for diagnostics.
    pub(crate) fn advance(&mut self) -> Option<TokenKind> {
        let kind = self
            .tokens
            .get_mut(self.position)
            .map(|token| std::mem::replace(&mut token.kind, TokenKind::Semi));
        self.position += 1;
        kind
    }

    pub(crate) fn unexpected(&self, expected: &str) -> ParseError {
        ParseError::Unexpected {
            found: self.peek().cloned(),
            expected: expected.to_string(),
            line: self.line(),
        }
    }

    pub(crate) fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(kind) {
            self.advance();
            Ok(())
        } else {
            Err(self.unexpected(what))
        }
    }

    pub(crate) fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.peek() {
            Some(TokenKind::Ident(_)) => match self.advance() {
                Some(TokenKind::Ident(text)) => Ok(text),
                _ => unreachable!("peeked an identifier"),
            },
            _ => Err(self.unexpected(what)),
        }
    }

    /// classref := IDENT | "{" IDENT ("," IDENT)+ "}" | "{" IDENT ("|" IDENT)+ "}"
    pub(crate) fn class_ref(&mut self) -> Result<Class, ParseError> {
        if self.peek() != Some(&TokenKind::LBrace) {
            return Ok(Class::named(self.ident("a class name")?));
        }
        self.advance();
        let first = self.ident("an origin class name")?;
        let mut members = vec![first];
        let meet = match self.peek() {
            Some(TokenKind::Comma) => true,
            Some(TokenKind::Pipe) => false,
            _ => return Err(self.unexpected("`,` or `|` in an implicit class literal")),
        };
        let separator = if meet {
            TokenKind::Comma
        } else {
            TokenKind::Pipe
        };
        while self.peek() == Some(&separator) {
            self.advance();
            members.push(self.ident("an origin class name")?);
        }
        self.expect(&TokenKind::RBrace, "`}` closing the implicit class literal")?;
        let classes = members.into_iter().map(Class::named);
        let class = if meet {
            Class::try_implicit(classes)
        } else {
            Class::try_implicit_union(classes)
        };
        class.ok_or_else(|| ParseError::Unexpected {
            found: None,
            expected: "at least two distinct origin classes".into(),
            line: self.line(),
        })
    }
}

/// Parses a document of `schema <name> { … }` blocks.
pub fn parse_document(source: &str) -> Result<Vec<NamedSchema>, ParseError> {
    let mut parser = Parser {
        tokens: lex(source)?,
        position: 0,
    };
    let mut schemas = Vec::new();
    while parser.peek().is_some() {
        let mut document = Document::default();
        let name = parse_block(&mut parser, &mut document)?;
        let schema = document
            .builder
            .build()
            .map_err(|error| ParseError::Invalid {
                schema: name.clone(),
                error,
            })?;
        schemas.push(NamedSchema {
            name,
            schema,
            keys: document.keys,
        });
    }
    Ok(schemas)
}

/// Parses a document expected to contain exactly one schema.
pub fn parse_schema(source: &str) -> Result<NamedSchema, ParseError> {
    let mut schemas = parse_document(source)?;
    match (schemas.len(), schemas.pop()) {
        (1, Some(schema)) => Ok(schema),
        (_, last) => Err(ParseError::Unexpected {
            found: None,
            expected: format!(
                "exactly one schema in the document (found {})",
                if last.is_some() { "several" } else { "none" }
            ),
            line: 1,
        }),
    }
}

/// Why a `PUT` payload publishes nothing. `Display` is the daemon's
/// `ERR` reply text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PayloadError {
    /// A block does not parse, or is not a valid schema on its own.
    Parse(ParseError),
    /// The payload holds no `schema` block.
    Empty,
    /// Every block is valid alone, but their join is not (§4.1).
    Merge(MergeError),
}

impl fmt::Display for PayloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PayloadError::Parse(err) => write!(f, "parse failed: {err}"),
            PayloadError::Empty => write!(f, "payload contains no schemas"),
            PayloadError::Merge(err) => {
                write!(f, "payload does not merge [{}]: {err}", err.code())
            }
        }
    }
}

impl std::error::Error for PayloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PayloadError::Parse(err) => Some(err),
            PayloadError::Empty => None,
            PayloadError::Merge(err) => Some(err),
        }
    }
}

/// Decodes a `PUT` payload into the one schema it publishes: the weak
/// join of every schema in the document. A join is the closure of the
/// union of its inputs (§4.1), so every block's items go into one
/// declaration set that is closed once — no block is closed alone and
/// nothing is joined afterwards. `key` lines parse and are dropped, and
/// `--x?-->` arrows join as plain arrows, as in the weak join of the
/// blocks [`parse_document`] returns.
///
/// # Errors
///
/// A failing payload is decoded again block by block, so the error is
/// the one the per-document path reports: the first block that does not
/// parse or is invalid alone ([`PayloadError::Parse`]), else the
/// blocks' join failure ([`PayloadError::Merge`]). A payload without
/// blocks is [`PayloadError::Empty`].
pub fn parse_payload(source: &str) -> Result<WeakSchema, PayloadError> {
    let mut parser = Parser {
        tokens: lex(source).map_err(|err| PayloadError::Parse(err.into()))?,
        position: 0,
    };
    let mut union = Union::default();
    let mut blocks = 0usize;
    while parser.peek().is_some() {
        if parse_block(&mut parser, &mut union).is_err() {
            return Err(payload_failure(source));
        }
        blocks += 1;
    }
    if blocks == 0 {
        return Err(PayloadError::Empty);
    }
    union.0.build().map_err(|_| payload_failure(source))
}

/// The error of a payload [`parse_payload`] could not decode, found the
/// per-document way: [`parse_document`], then the join of its blocks.
/// Only failing payloads come here.
fn payload_failure(source: &str) -> PayloadError {
    let documents = match parse_document(source) {
        Ok(documents) => documents,
        Err(err) => return PayloadError::Parse(err),
    };
    match Merger::new()
        .schemas(documents.iter().map(|d| d.schema.schema()))
        .join()
    {
        Err(err) => PayloadError::Merge(err),
        Ok(_) => unreachable!("the blocks' join closes the union that failed to close"),
    }
}

/// Where the item grammar puts the declarations of a schema body.
trait Declarations {
    fn class(&mut self, class: Class);
    fn specialize(&mut self, sub: Class, sup: Class);
    fn arrow(&mut self, src: Class, label: String, tgt: Class, optional: bool);
    fn key(&mut self, class: Class, labels: Vec<String>);
}

/// One block of [`parse_document`]: its annotated schema and its keys.
#[derive(Default)]
struct Document {
    builder: AnnotatedSchemaBuilder,
    keys: KeyAssignment,
}

impl Declarations for Document {
    fn class(&mut self, class: Class) {
        self.builder = mem::take(&mut self.builder).class(class);
    }

    fn specialize(&mut self, sub: Class, sup: Class) {
        self.builder = mem::take(&mut self.builder).specialize(sub, sup);
    }

    fn arrow(&mut self, src: Class, label: String, tgt: Class, optional: bool) {
        let builder = mem::take(&mut self.builder);
        self.builder = if optional {
            builder.optional_arrow(src, label, tgt)
        } else {
            builder.arrow(src, label, tgt)
        };
    }

    fn key(&mut self, class: Class, labels: Vec<String>) {
        self.keys.add_key(class, KeySet::new(labels));
    }
}

/// Every block of a [`parse_payload`] payload as one plain schema's
/// declarations.
#[derive(Default)]
struct Union(SchemaBuilder);

impl Declarations for Union {
    fn class(&mut self, class: Class) {
        self.0 = mem::take(&mut self.0).class(class);
    }

    fn specialize(&mut self, sub: Class, sup: Class) {
        self.0 = mem::take(&mut self.0).specialize(sub, sup);
    }

    fn arrow(&mut self, src: Class, label: String, tgt: Class, _optional: bool) {
        self.0 = mem::take(&mut self.0).arrow(src, label, tgt);
    }

    fn key(&mut self, _class: Class, _labels: Vec<String>) {}
}

/// block := "schema" IDENT "{" item* "}". Each item goes to `sink`; the
/// result is the block's name.
fn parse_block(parser: &mut Parser, sink: &mut impl Declarations) -> Result<String, ParseError> {
    parser.expect(&TokenKind::Schema, "`schema`")?;
    let name = parser.ident("a schema name")?;
    parser.expect(&TokenKind::LBrace, "`{` opening the schema body")?;

    loop {
        match parser.peek() {
            Some(TokenKind::RBrace) => {
                parser.advance();
                break;
            }
            Some(TokenKind::Class) => {
                parser.advance();
                let class = parser.class_ref()?;
                parser.expect(&TokenKind::Semi, "`;` after a class declaration")?;
                sink.class(class);
            }
            Some(TokenKind::Key) => {
                parser.advance();
                let class = parser.class_ref()?;
                parser.expect(&TokenKind::LBrace, "`{` opening the key labels")?;
                let mut labels = Vec::new();
                if parser.peek() != Some(&TokenKind::RBrace) {
                    labels.push(parser.ident("a key label")?);
                    while parser.peek() == Some(&TokenKind::Comma) {
                        parser.advance();
                        labels.push(parser.ident("a key label")?);
                    }
                }
                parser.expect(&TokenKind::RBrace, "`}` closing the key labels")?;
                parser.expect(&TokenKind::Semi, "`;` after a key declaration")?;
                sink.key(class, labels);
            }
            Some(TokenKind::Ident(_)) | Some(TokenKind::LBrace) => {
                let source_class = parser.class_ref()?;
                match parser.peek() {
                    Some(TokenKind::FatArrow) => {
                        parser.advance();
                        let target = parser.class_ref()?;
                        parser.expect(&TokenKind::Semi, "`;` after a specialization")?;
                        sink.specialize(source_class, target);
                    }
                    Some(TokenKind::Arrow { .. }) => {
                        let (label, optional) = match parser.advance() {
                            Some(TokenKind::Arrow { label, optional }) => (label, optional),
                            _ => unreachable!("peeked an arrow"),
                        };
                        let target = parser.class_ref()?;
                        parser.expect(&TokenKind::Semi, "`;` after an arrow")?;
                        sink.arrow(source_class, label, target, optional);
                    }
                    _ => return Err(parser.unexpected("`=>` or `--label-->` after a class")),
                }
            }
            _ => return Err(parser.unexpected("a schema item or `}`")),
        }
    }
    Ok(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema_merge_core::{Label, Participation};

    fn c(s: &str) -> Class {
        Class::named(s)
    }

    fn l(s: &str) -> Label {
        Label::new(s)
    }

    #[test]
    fn parse_figure_2_style_schema() {
        let doc = parse_schema(
            "schema Dogs {\n\
             \tGuide-dog => Dog;\n\
             \tPolice-dog => Dog;\n\
             \tDog --age--> int;\n\
             \tDog --kind--> breed;\n\
             \tPolice-dog --id-num--> int;\n\
             \tLives --occ--> Dog;\n\
             \tLives --home--> Kennel;\n\
             \tKennel --addr--> place;\n\
             }",
        )
        .unwrap();
        assert_eq!(doc.name, "Dogs");
        let schema = doc.schema.schema();
        assert!(schema.specializes(&c("Guide-dog"), &c("Dog")));
        assert!(
            schema.has_arrow(&c("Guide-dog"), &l("age"), &c("int")),
            "closure applies"
        );
        assert_eq!(schema.num_classes(), 8);
    }

    #[test]
    fn parse_optional_arrows() {
        let doc = parse_schema("schema S { Dog --chip?--> int; }").unwrap();
        assert_eq!(
            doc.schema.participation(&c("Dog"), &l("chip"), &c("int")),
            Participation::ZeroOrOne
        );
    }

    #[test]
    fn parse_keys() {
        let doc = parse_schema(
            "schema S {\n\
             Person --SS#--> int;\n\
             Person --Name--> text;\n\
             Person --Address--> text;\n\
             key Person {SS#};\n\
             key Person {Name, Address};\n\
             }",
        )
        .unwrap();
        let family = doc.keys.family(&c("Person"));
        assert_eq!(family.num_keys(), 2);
        assert!(doc.keys.validate(doc.schema.schema()).is_ok());
    }

    #[test]
    fn parse_implicit_class_literals() {
        let doc =
            parse_schema("schema S { class {B1,B2}; {B1,B2} => B1; C --a--> {B1,B2}; }").unwrap();
        let meet = Class::implicit([c("B1"), c("B2")]);
        assert!(doc.schema.schema().contains_class(&meet));
        assert!(doc.schema.schema().specializes(&meet, &c("B1")));

        let doc2 = parse_schema("schema S { class {A|B}; }").unwrap();
        assert!(doc2
            .schema
            .schema()
            .contains_class(&Class::implicit_union([c("A"), c("B")])));
    }

    #[test]
    fn parse_multiple_schemas() {
        let docs = parse_document("schema A { class X; }\nschema B { X --f--> Y; }").unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0].name, "A");
        assert_eq!(docs[1].name, "B");
    }

    #[test]
    fn empty_document() {
        assert!(parse_document("  // nothing here\n").unwrap().is_empty());
        assert!(parse_schema("").is_err());
    }

    #[test]
    fn error_reporting_carries_lines() {
        let err = parse_document("schema S {\nclass ;\n}").unwrap_err();
        match err {
            ParseError::Unexpected { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn cyclic_schema_is_rejected_at_build() {
        let err = parse_document("schema S { A => B; B => A; }").unwrap_err();
        assert!(matches!(err, ParseError::Invalid { .. }));
        assert!(err.to_string().contains("cyclic"));
    }

    #[test]
    fn missing_semicolons_are_reported() {
        let err = parse_document("schema S { A => B }").unwrap_err();
        assert!(err.to_string().contains("`;`"));
    }

    #[test]
    fn singleton_implicit_literal_is_rejected() {
        let err = parse_document("schema S { class {A,A}; }").unwrap_err();
        assert!(err.to_string().contains("two distinct origin classes"));
    }

    #[test]
    fn mixed_separators_are_rejected() {
        assert!(parse_document("schema S { class {A,B|C}; }").is_err());
    }
}
