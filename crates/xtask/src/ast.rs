//! A lightweight recursive-descent parser for Rust's *item* structure.
//!
//! The API-drift gate in [`crate::analyze::api`] needs each crate's items:
//! which functions exist, what their visibility and signatures are, and which
//! impl block they belong to. This module provides exactly that — no more.
//! It parses the *masked* code view built by [`crate::source`]
//! (string/comment contents already blanked), so it never has to reason
//! about literals, and it skips function bodies without looking inside.
//!
//! Coverage is the item grammar this workspace actually uses: `fn`, `struct`,
//! `enum`, `trait`, `impl` (inherent and trait), `mod` (inline and
//! out-of-line), `use`, `const`, `static`, `type` and `macro_rules!`. An
//! item-level macro invocation (`name! { … }`, `name! ( … );`,
//! `name! [ … ];`) is skipped as one balanced unit. Anything unrecognized is
//! skipped one token at a time, so a new construct degrades to "not
//! analyzed", never to a parse abort.

use crate::source::SourceFile;

/// One lexical token of the masked code view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token text: an identifier/number run, or a single punctuation char.
    pub text: String,
    /// 0-based source line the token starts on.
    pub line: usize,
    /// `true` for identifier/number tokens.
    pub is_ident: bool,
}

impl Token {
    fn is(&self, text: &str) -> bool {
        self.text == text
    }
}

/// Lexes the masked code view into tokens. Comment and literal contents are
/// already blanked by [`SourceFile::parse`], so the stream contains only real
/// code structure (plus bare `"`/`'` delimiters, which the parser ignores).
pub fn tokenize(file: &SourceFile) -> Vec<Token> {
    let mut toks = Vec::new();
    for (line, code) in file.code.iter().enumerate() {
        let chars: Vec<char> = code.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c.is_alphanumeric() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                toks.push(Token {
                    text: chars[start..i].iter().collect(),
                    line,
                    is_ident: true,
                });
            } else {
                toks.push(Token {
                    text: c.to_string(),
                    line,
                    is_ident: false,
                });
                i += 1;
            }
        }
    }
    toks
}

/// Declared visibility of an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vis {
    /// No modifier.
    Private,
    /// `pub(crate)`, `pub(super)`, `pub(in …)`.
    Scoped,
    /// Plain `pub`.
    Pub,
}

/// A parsed function (free, inherent method, trait method or trait-impl
/// method).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Inline-module path from the crate file root (empty at file top level).
    pub module: Vec<String>,
    /// The `impl`/`trait` self type the function belongs to, if any.
    pub self_ty: Option<String>,
    /// Function name.
    pub name: String,
    /// Declared visibility (trait items count as the trait's visibility).
    pub vis: Vis,
    /// Whitespace-normalized signature, `fn name (…) -> …`.
    pub signature: String,
    /// `true` when the function sits in a `#[cfg(test)]` region.
    pub is_test: bool,
    /// `true` for methods of `impl Trait for Type` blocks.
    pub in_trait_impl: bool,
}

impl FnItem {
    /// Stable key used by the API snapshot: `Type::name` for associated
    /// functions, `name` for free functions.
    pub fn key(&self) -> String {
        match &self.self_ty {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Kind of a non-function item captured for the API snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeKind {
    /// `struct`.
    Struct,
    /// `enum`.
    Enum,
    /// `trait`.
    Trait,
    /// `const`.
    Const,
    /// `static`.
    Static,
    /// `type` alias.
    TypeAlias,
    /// `pub use` re-export.
    Reexport,
}

/// A parsed non-function item.
#[derive(Debug, Clone)]
pub struct TypeItem {
    /// Inline-module path from the crate file root.
    pub module: Vec<String>,
    /// Item kind.
    pub kind: TypeKind,
    /// Declared visibility.
    pub vis: Vis,
    /// Whitespace-normalized declaration (starts with the item's keyword and
    /// name). Struct declarations list only the `pub` fields (private fields
    /// are not API surface); enum declarations list every variant.
    pub decl: String,
    /// `true` when the item sits in a `#[cfg(test)]` region.
    pub is_test: bool,
}

/// Everything extracted from one source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Functions, in source order.
    pub fns: Vec<FnItem>,
    /// Non-function items, in source order.
    pub types: Vec<TypeItem>,
}

/// Parses one analyzed source file into its item structure.
pub fn parse_file(file: &SourceFile) -> ParsedFile {
    let toks = tokenize(file);
    let mut p = Parser {
        file,
        toks,
        pos: 0,
        out: ParsedFile::default(),
    };
    let mut module = Vec::new();
    p.parse_items(&mut module, None, false, false);
    p.out
}

/// Joins token texts with single spaces — the canonical normalized form used
/// for signatures, declarations and snapshots (stable under reformatting).
fn join(toks: &[Token]) -> String {
    toks.iter()
        .map(|t| t.text.as_str())
        .collect::<Vec<_>>()
        .join(" ")
}

struct Parser<'a> {
    file: &'a SourceFile,
    toks: Vec<Token>,
    pos: usize,
    out: ParsedFile,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos)
    }

    fn peek_at(&self, offset: usize) -> Option<&Token> {
        self.toks.get(self.pos + offset)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn peek_is(&self, text: &str) -> bool {
        self.peek().is_some_and(|t| t.is(text))
    }

    /// Skips a balanced `open … close` group, assuming the cursor is on
    /// `open`. Returns the token range covered (inclusive of delimiters).
    fn skip_balanced(&mut self, open: &str, close: &str) -> (usize, usize) {
        let start = self.pos;
        let mut depth = 0i32;
        while let Some(t) = self.bump() {
            if t.is(open) {
                depth += 1;
            } else if t.is(close) {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
        (start, self.pos)
    }

    /// Skips a balanced generic parameter list `<…>`, tolerating `->` inside
    /// (e.g. `impl<F: Fn() -> usize>`): a `>` preceded by `-` is an arrow,
    /// not a closing bracket.
    fn skip_angles(&mut self) {
        let mut depth = 0i32;
        let mut prev_dash = false;
        while let Some(t) = self.bump() {
            if t.is("<") {
                depth += 1;
            } else if t.is(">") && !prev_dash {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            prev_dash = t.is("-");
        }
    }

    /// Skips the run of `#[…]` / `#![…]` attributes at the cursor.
    fn skip_attrs(&mut self) {
        while self.peek_is("#") {
            self.bump(); // '#'
            if self.peek_is("!") {
                self.bump();
            }
            if self.peek_is("[") {
                let _ = self.skip_balanced("[", "]");
            }
        }
    }

    fn parse_vis(&mut self) -> Vis {
        if !self.peek_is("pub") {
            return Vis::Private;
        }
        self.bump();
        if self.peek_is("(") {
            let _ = self.skip_balanced("(", ")");
            Vis::Scoped
        } else {
            Vis::Pub
        }
    }

    /// Parses items until end of input or an unmatched `}` (the caller's
    /// closing brace, which is left unconsumed).
    fn parse_items(
        &mut self,
        module: &mut Vec<String>,
        self_ty: Option<&str>,
        in_trait_impl: bool,
        default_pub: bool,
    ) {
        loop {
            let Some(tok) = self.peek() else { return };
            if tok.is("}") {
                return;
            }
            self.skip_attrs();
            let declared = self.parse_vis();
            let vis = if declared == Vis::Private && default_pub {
                Vis::Pub
            } else {
                declared
            };
            let Some(tok) = self.peek() else { return };
            let text = tok.text.clone();
            match text.as_str() {
                // `const fn` / `unsafe fn` / `async fn` / `extern "C" fn`
                // qualifiers: skip the qualifier and loop back around only
                // when a `fn` actually follows.
                "const" if self.peek_at(1).is_some_and(|t| !t.is("fn")) => {
                    self.parse_const_or_static(module, vis, TypeKind::Const);
                }
                "static" => {
                    self.parse_const_or_static(module, vis, TypeKind::Static);
                }
                "const" | "unsafe" | "async" | "extern" | "default" => {
                    self.bump();
                    // `extern "C"` — the quote delimiters survive masking.
                    while self.peek().is_some_and(|t| t.is("\"")) {
                        self.bump();
                    }
                    if self.peek_is("fn") {
                        self.parse_fn(module, self_ty, in_trait_impl, vis);
                    }
                }
                "fn" => self.parse_fn(module, self_ty, in_trait_impl, vis),
                "struct" => self.parse_struct(module, vis),
                "enum" => self.parse_enum_or_trait(module, vis, TypeKind::Enum),
                "trait" => self.parse_enum_or_trait(module, vis, TypeKind::Trait),
                "union" => self.parse_enum_or_trait(module, vis, TypeKind::Struct),
                "impl" => self.parse_impl(module),
                "mod" => self.parse_mod(module),
                "use" => self.parse_use(module, vis),
                "type" => self.parse_type_alias(module, vis),
                "macro_rules" => {
                    self.bump();
                    if self.peek_is("!") {
                        self.bump();
                    }
                    self.bump(); // macro name
                    if self.peek_is("{") {
                        let _ = self.skip_balanced("{", "}");
                    }
                }
                _ if self.peek_at(1).is_some_and(|t| t.is("!")) => self.skip_macro_call(),
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Skips an item-level macro invocation `name ! <group> [;]`, where the
    /// group is a balanced `{…}`, `(…)` or `[…]`: its tokens are not items,
    /// and a closing `}` inside must not end the enclosing item list.
    fn skip_macro_call(&mut self) {
        self.bump(); // macro name
        self.bump(); // `!`
        let (open, close) = match self.peek().map(|t| t.text.as_str()) {
            Some("{") => ("{", "}"),
            Some("(") => ("(", ")"),
            Some("[") => ("[", "]"),
            _ => return,
        };
        let _ = self.skip_balanced(open, close);
        if self.peek_is(";") {
            self.bump();
        }
    }

    fn parse_fn(
        &mut self,
        module: &[String],
        self_ty: Option<&str>,
        in_trait_impl: bool,
        vis: Vis,
    ) {
        let fn_line = self.peek().map_or(0, |t| t.line);
        self.bump(); // `fn`
        let Some(name_tok) = self.bump() else { return };
        if !name_tok.is_ident {
            return;
        }
        // Signature: everything up to the body `{` or declaration `;` at
        // paren/bracket depth 0.
        let sig_start = self.pos;
        let mut depth = 0i32;
        let mut has_body = false;
        while let Some(t) = self.peek() {
            if t.is("(") || t.is("[") {
                depth += 1;
            } else if t.is(")") || t.is("]") {
                depth -= 1;
            } else if depth == 0 && t.is("{") {
                has_body = true;
                break;
            } else if depth == 0 && t.is(";") {
                break;
            }
            self.bump();
        }
        let signature = format!(
            "fn {} {}",
            name_tok.text,
            join(&self.toks[sig_start..self.pos])
        );
        if has_body {
            let _ = self.skip_balanced("{", "}");
        } else {
            self.bump(); // `;`
        }
        self.out.fns.push(FnItem {
            module: module.to_vec(),
            self_ty: self_ty.map(str::to_string),
            name: name_tok.text,
            vis,
            signature: signature.trim().to_string(),
            is_test: self.file.in_test.get(fn_line).copied().unwrap_or(false),
            in_trait_impl,
        });
    }

    fn parse_struct(&mut self, module: &[String], vis: Vis) {
        let line = self.peek().map_or(0, |t| t.line);
        self.bump(); // `struct`
        let Some(name_tok) = self.bump() else { return };
        // Generics + where clause, up to the field list or `;`.
        let head_start = self.pos;
        while let Some(t) = self.peek() {
            if t.is("<") {
                self.skip_angles();
            } else if t.is("{") || t.is("(") || t.is(";") {
                break;
            } else {
                self.bump();
            }
        }
        let head = join(&self.toks[head_start..self.pos]);
        let fields = if self.peek_is("{") {
            let (from, to) = self.skip_balanced("{", "}");
            let inner = &self.toks[from + 1..to.saturating_sub(1)].to_vec();
            format!("{{ {} }}", pub_named_fields(inner))
        } else if self.peek_is("(") {
            let (from, to) = self.skip_balanced("(", ")");
            let inner = &self.toks[from + 1..to.saturating_sub(1)].to_vec();
            let f = pub_tuple_fields(inner);
            if self.peek_is(";") {
                self.bump();
            }
            format!("( {f} )")
        } else {
            if self.peek_is(";") {
                self.bump();
            }
            String::new()
        };
        let decl = format!("struct {} {head} {fields}", name_tok.text);
        self.out.types.push(TypeItem {
            module: module.to_vec(),
            kind: TypeKind::Struct,
            vis,
            decl: normalize_ws(&decl),
            is_test: self.file.in_test.get(line).copied().unwrap_or(false),
        });
    }

    /// Enums and traits: the whole body is captured verbatim — every enum
    /// variant is public API, and trait items are parsed separately below as
    /// functions.
    fn parse_enum_or_trait(&mut self, module: &[String], vis: Vis, kind: TypeKind) {
        let line = self.peek().map_or(0, |t| t.line);
        self.bump(); // keyword
        let Some(name_tok) = self.bump() else { return };
        let head_start = self.pos;
        while let Some(t) = self.peek() {
            if t.is("<") {
                self.skip_angles();
            } else if t.is("{") || t.is(";") {
                break;
            } else {
                self.bump();
            }
        }
        let head = join(&self.toks[head_start..self.pos]);
        let keyword = match kind {
            TypeKind::Enum => "enum",
            TypeKind::Trait => "trait",
            _ => "struct",
        };
        let mut decl = format!("{keyword} {} {head}", name_tok.text);
        if self.peek_is("{") {
            if kind == TypeKind::Trait {
                // Parse trait items as functions attached to the trait name.
                self.bump(); // `{`
                let trait_pub = vis == Vis::Pub;
                self.parse_trait_items(module, &name_tok.text, trait_pub);
                if self.peek_is("}") {
                    self.bump();
                }
            } else {
                let (from, to) = self.skip_balanced("{", "}");
                let inner = join(&self.toks[from + 1..to.saturating_sub(1)]);
                decl = format!("{decl} {{ {inner} }}");
            }
        } else if self.peek_is(";") {
            self.bump();
        }
        self.out.types.push(TypeItem {
            module: module.to_vec(),
            kind,
            vis,
            decl: normalize_ws(&decl),
            is_test: self.file.in_test.get(line).copied().unwrap_or(false),
        });
    }

    fn parse_trait_items(&mut self, module: &[String], trait_name: &str, trait_pub: bool) {
        let ty = trait_name.to_string();
        let mut inner_module = module.to_vec();
        self.parse_items(&mut inner_module, Some(&ty), false, trait_pub);
    }

    fn parse_impl(&mut self, module: &[String]) {
        self.bump(); // `impl`
        if self.peek_is("<") {
            self.skip_angles();
        }
        // Self-type (and optional `Trait for`) tokens up to the body brace.
        let head_start = self.pos;
        while let Some(t) = self.peek() {
            if t.is("<") {
                self.skip_angles();
            } else if t.is("{") {
                break;
            } else if t.is("(") || t.is("[") {
                let open = t.text.clone();
                let close = if open == "(" { ")" } else { "]" };
                let _ = self.skip_balanced(&open, close);
            } else {
                self.bump();
            }
        }
        let head: Vec<Token> = self.toks[head_start..self.pos].to_vec();
        let for_pos = head.iter().position(|t| t.is("for"));
        let in_trait_impl = for_pos.is_some();
        let ty_part = match for_pos {
            Some(i) => &head[i + 1..],
            None => &head[..],
        };
        let self_ty = last_path_ident(ty_part);
        if self.peek_is("{") {
            self.bump();
            let ty = self_ty.unwrap_or_default();
            let mut inner_module = module.to_vec();
            self.parse_items(
                &mut inner_module,
                if ty.is_empty() { None } else { Some(&ty) },
                in_trait_impl,
                false,
            );
            if self.peek_is("}") {
                self.bump();
            }
        }
    }

    fn parse_mod(&mut self, module: &mut Vec<String>) {
        self.bump(); // `mod`
        let Some(name_tok) = self.bump() else { return };
        if self.peek_is("{") {
            self.bump();
            module.push(name_tok.text);
            self.parse_items(module, None, false, false);
            module.pop();
            if self.peek_is("}") {
                self.bump();
            }
        } else if self.peek_is(";") {
            self.bump();
        }
    }

    fn parse_use(&mut self, module: &[String], vis: Vis) {
        let line = self.peek().map_or(0, |t| t.line);
        let start = self.pos;
        self.bump(); // `use`
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if t.is("{") {
                depth += 1;
            } else if t.is("}") {
                depth -= 1;
            } else if t.is(";") && depth == 0 {
                break;
            }
            self.bump();
        }
        let decl = join(&self.toks[start..self.pos]);
        self.bump(); // `;`
        if vis == Vis::Pub {
            self.out.types.push(TypeItem {
                module: module.to_vec(),
                kind: TypeKind::Reexport,
                vis,
                decl,
                is_test: self.file.in_test.get(line).copied().unwrap_or(false),
            });
        }
    }

    fn parse_const_or_static(&mut self, module: &[String], vis: Vis, kind: TypeKind) {
        let line = self.peek().map_or(0, |t| t.line);
        let keyword = self.bump().map(|t| t.text).unwrap_or_default();
        if self.peek_is("mut") {
            self.bump();
        }
        let Some(name_tok) = self.bump() else { return };
        // Type: between `:` and `=`/`;` at depth 0.
        let ty_start = self.pos;
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if t.is("(") || t.is("[") || t.is("{") {
                depth += 1;
            } else if t.is(")") || t.is("]") || t.is("}") {
                depth -= 1;
            } else if depth == 0 && (t.is("=") || t.is(";")) {
                break;
            }
            self.bump();
        }
        let ty = join(&self.toks[ty_start..self.pos]);
        // Skip the value to the terminating `;`.
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if t.is("(") || t.is("[") || t.is("{") {
                depth += 1;
            } else if t.is(")") || t.is("]") || t.is("}") {
                depth -= 1;
            } else if depth == 0 && t.is(";") {
                self.bump();
                break;
            }
            self.bump();
        }
        self.out.types.push(TypeItem {
            module: module.to_vec(),
            kind,
            vis,
            decl: normalize_ws(&format!("{keyword} {} {ty}", name_tok.text)),
            is_test: self.file.in_test.get(line).copied().unwrap_or(false),
        });
    }

    fn parse_type_alias(&mut self, module: &[String], vis: Vis) {
        let line = self.peek().map_or(0, |t| t.line);
        let start = self.pos;
        self.bump(); // `type`
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if t.is("(") || t.is("[") || t.is("{") {
                depth += 1;
            } else if t.is(")") || t.is("]") || t.is("}") {
                depth -= 1;
            } else if depth == 0 && t.is(";") {
                break;
            }
            self.bump();
        }
        let decl = join(&self.toks[start..self.pos]);
        self.bump(); // `;`
        self.out.types.push(TypeItem {
            module: module.to_vec(),
            kind: TypeKind::TypeAlias,
            vis,
            decl,
            is_test: self.file.in_test.get(line).copied().unwrap_or(false),
        });
    }
}

/// The final path-segment identifier of a type expression, generics and
/// references stripped: `std :: fmt :: Display` → `Display`,
/// `& mut Foo < T >` → `Foo`.
fn last_path_ident(toks: &[Token]) -> Option<String> {
    let cut = toks.iter().position(|t| t.is("<")).unwrap_or(toks.len());
    toks[..cut]
        .iter()
        .rev()
        .find(|t| t.is_ident && !t.is("dyn") && !t.is("mut"))
        .map(|t| t.text.clone())
}

/// Collapses whitespace runs to single spaces.
fn normalize_ws(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Extracts `pub name : Type` fields from a named-struct body token slice.
/// Only bare `pub` counts: `pub(crate)` and `pub(super)` fields are not
/// public API.
fn pub_named_fields(toks: &[Token]) -> String {
    let mut fields = Vec::new();
    let mut i = 0usize;
    let mut depth = 0i32;
    let mut field_start = 0usize;
    while i <= toks.len() {
        let at_end = i == toks.len();
        let is_sep = !at_end && toks[i].is(",") && depth == 0;
        if at_end || is_sep {
            let field = &toks[field_start..i];
            // Drop leading attributes `# [ … ]`.
            let mut j = 0usize;
            while j < field.len() && field[j].is("#") {
                j += 1;
                if j < field.len() && field[j].is("[") {
                    let mut d = 0i32;
                    while j < field.len() {
                        if field[j].is("[") {
                            d += 1;
                        } else if field[j].is("]") {
                            d -= 1;
                            if d == 0 {
                                j += 1;
                                break;
                            }
                        }
                        j += 1;
                    }
                }
            }
            let field = &field[j..];
            if field.first().is_some_and(|t| t.is("pub"))
                && !field.get(1).is_some_and(|t| t.is("("))
            {
                fields.push(join(field));
            }
            field_start = i + 1;
            if at_end {
                break;
            }
        } else if toks[i].is("(") || toks[i].is("[") || toks[i].is("{") || toks[i].is("<") {
            depth += 1;
        } else if toks[i].is(")")
            || toks[i].is("]")
            || toks[i].is("}")
            || (toks[i].is(">") && i > 0 && !toks[i - 1].is("-"))
        {
            depth -= 1;
        }
        i += 1;
    }
    fields.join(" , ")
}

/// Extracts the `pub` positional fields of a tuple struct.
fn pub_tuple_fields(toks: &[Token]) -> String {
    // Same splitting logic; a tuple field is `pub Type` or `Type`.
    pub_named_fields(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_file(&SourceFile::parse("t.rs", src))
    }

    #[test]
    fn free_and_method_functions_are_found() {
        let src = "pub fn free(a: u32) -> u32 { a }\n\
                   struct S;\n\
                   impl S {\n    pub fn method(&self) {}\n    fn private(&self) {}\n}\n";
        let p = parse(src);
        assert_eq!(p.fns.len(), 3);
        assert_eq!(p.fns[0].key(), "free");
        assert_eq!(p.fns[0].vis, Vis::Pub);
        assert_eq!(p.fns[1].key(), "S::method");
        assert_eq!(p.fns[2].vis, Vis::Private);
        assert!(p.fns[0].signature.contains("fn free"));
    }

    #[test]
    fn trait_impls_are_flagged() {
        let src = "impl std::fmt::Display for Finding {\n\
                       fn fmt(&self) -> u8 { 0 }\n\
                   }\n\
                   impl Finding {\n    pub fn own(&self) {}\n}\n";
        let p = parse(src);
        assert_eq!(p.fns[0].key(), "Finding::fmt");
        assert!(p.fns[0].in_trait_impl);
        assert!(!p.fns[1].in_trait_impl);
    }

    #[test]
    fn cfg_test_regions_are_detected() {
        let src = "#[cfg(feature = \"extra\")]\n\
                   pub fn check(&self) {}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let p = parse(src);
        assert!(!p.fns[0].is_test);
        assert!(p.fns[1].is_test);
        assert_eq!(p.fns[1].module, vec!["tests".to_string()]);
    }

    #[test]
    fn struct_decl_keeps_only_pub_fields() {
        let src = "pub struct Mixed {\n    pub shown: u32,\n    hidden: Vec<u8>,\n    \
                   pub(crate) scoped: u8,\n}\n";
        let p = parse(src);
        assert_eq!(p.types.len(), 1);
        assert!(p.types[0].decl.contains("pub shown : u32"));
        assert!(!p.types[0].decl.contains("hidden"));
        assert!(!p.types[0].decl.contains("scoped"), "{}", p.types[0].decl);
    }

    #[test]
    fn item_macros_are_skipped_as_one_unit() {
        let src = "thread_local! {\n    static N: Cell<u64> = const { Cell::new(0) };\n}\n\
                   pub fn after_braces() {}\n\
                   vec_like!(a, { b });\n\
                   pub struct AfterParens;\n\
                   list![x, y];\n\
                   pub fn after_brackets() {}\n";
        let p = parse(src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["after_braces", "after_brackets"]);
        assert_eq!(p.types.len(), 1, "{:?}", p.types);
        assert!(p.types[0].decl.starts_with("struct AfterParens"));
    }

    #[test]
    fn enum_variants_are_all_captured() {
        let src = "pub enum E {\n    A,\n    B(u32),\n    C { x: f64 },\n}\n";
        let p = parse(src);
        let d = &p.types[0].decl;
        assert!(
            d.contains('A') && d.contains("B ( u32 )") && d.contains('C'),
            "{d}"
        );
    }

    #[test]
    fn consts_uses_and_aliases_are_captured() {
        let src = "pub const MAX: usize = 64;\n\
                   pub use crate::tree::CountingTree;\n\
                   pub type CellId = u32;\n\
                   use std::fmt;\n";
        let p = parse(src);
        let kinds: Vec<TypeKind> = p.types.iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![TypeKind::Const, TypeKind::Reexport, TypeKind::TypeAlias]
        );
        assert!(p.types[0].decl.contains("const MAX : usize"));
    }

    #[test]
    fn generic_functions_parse_past_arrows_in_bounds() {
        let src = "pub fn apply<F: Fn(u32) -> u32>(f: F) -> u32 { f(1) }\n\
                   pub fn after() {}\n";
        let p = parse(src);
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[1].name, "after");
    }

    #[test]
    fn nested_modules_build_paths() {
        let src = "pub mod outer {\n    pub mod inner {\n        pub fn deep() {}\n    }\n}\n";
        let p = parse(src);
        assert_eq!(
            p.fns[0].module,
            vec!["outer".to_string(), "inner".to_string()]
        );
    }

    #[test]
    fn masked_strings_do_not_confuse_items() {
        let src = "fn f() -> &'static str { \"pub fn fake() {}\" }\npub fn real() {}\n";
        let p = parse(src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["f", "real"]);
    }
}
