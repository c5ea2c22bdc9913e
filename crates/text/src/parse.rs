//! The DSL parser: tokens → annotated schemas with key assignments.

use std::fmt;

use schema_merge_core::lower::AnnotatedSchema;
use schema_merge_core::{Class, KeyAssignment, KeySet, SchemaError};

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
        schemas.push(parse_one(&mut parser)?);
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

fn parse_one(parser: &mut Parser) -> Result<NamedSchema, ParseError> {
    parser.expect(&TokenKind::Schema, "`schema`")?;
    let name = parser.ident("a schema name")?;
    parser.expect(&TokenKind::LBrace, "`{` opening the schema body")?;

    let mut builder = AnnotatedSchema::builder();
    let mut keys = KeyAssignment::new();

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
                builder = builder.class(class);
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
                keys.add_key(class, KeySet::new(labels));
            }
            Some(TokenKind::Ident(_)) | Some(TokenKind::LBrace) => {
                let source_class = parser.class_ref()?;
                match parser.peek() {
                    Some(TokenKind::FatArrow) => {
                        parser.advance();
                        let target = parser.class_ref()?;
                        parser.expect(&TokenKind::Semi, "`;` after a specialization")?;
                        builder = builder.specialize(source_class, target);
                    }
                    Some(TokenKind::Arrow { .. }) => {
                        let (label, optional) = match parser.advance() {
                            Some(TokenKind::Arrow { label, optional }) => (label, optional),
                            _ => unreachable!("peeked an arrow"),
                        };
                        let target = parser.class_ref()?;
                        parser.expect(&TokenKind::Semi, "`;` after an arrow")?;
                        builder = if optional {
                            builder.optional_arrow(source_class, label, target)
                        } else {
                            builder.arrow(source_class, label, target)
                        };
                    }
                    _ => return Err(parser.unexpected("`=>` or `--label-->` after a class")),
                }
            }
            _ => return Err(parser.unexpected("a schema item or `}`")),
        }
    }

    let schema = builder.build().map_err(|error| ParseError::Invalid {
        schema: name.clone(),
        error,
    })?;
    Ok(NamedSchema { name, schema, keys })
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
