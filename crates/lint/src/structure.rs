//! A recursive-descent *structurizer* on top of the span-exact lexer.
//!
//! The token-level rules of PR 6 cannot see function boundaries, closures,
//! or call paths. This module recovers exactly as much structure as the
//! semantic rules need — no more: a brace-tree of items (`mod` / `fn` /
//! `impl` / `trait`), function signatures (name, `pub`-ness, whether the
//! parameter list takes an RNG, whether the return type constructs one,
//! whether the doc block has a `# RNG stream` section), and closure
//! boundaries annotated with whether the closure runs under a rayon
//! parallel entry point (`par_*` / `into_par_iter` / `spawn` / `join` /
//! `scope`), directly or by lexical nesting.
//!
//! Like the lexer, the structurizer is *infallible*: unbalanced braces,
//! macros, or adversarial input degrade to a best-effort tree that still
//! satisfies the **tiling invariant** pinned by `validate_tiling` (and by
//! `tests/structure_tiling.rs` over the whole workspace plus a generative
//! property test):
//!
//! * a node's children are ordered, disjoint, and nested within it;
//! * the root covers every code token exactly once — so each code token is
//!   owned by exactly one node (the deepest node containing it).
//!
//! Known blind spots (documented in `crates/lint/README.md`): turbofish
//! call sites (`.map::<_, _>(…)`) hide the callee name from the backward
//! receiver walk, and any user-defined function named `spawn` / `join` /
//! `scope` or prefixed `par_` is conservatively treated as a parallel
//! entry point.

use crate::lexer::{lex, TokKind, Token};

/// Parsed structure of one source file.
pub struct Structure {
    /// All tokens, including comments (needed for doc-section lookup).
    pub toks: Vec<Token>,
    /// Indices into `toks` of the code tokens (comments stripped).
    pub code: Vec<usize>,
    /// Root of the item tree; spans all of `code`.
    pub root: Node,
}

/// One node of the item tree. `start`/`end` are indices into
/// [`Structure::code`] — an exclusive range `[start, end)` of the code
/// tokens this node owns (including its keyword, signature, and braces).
pub struct Node {
    /// What this node is.
    pub kind: NodeKind,
    /// First owned code-token index (inclusive).
    pub start: usize,
    /// One past the last owned code-token index.
    pub end: usize,
    /// Interior of the body — between the braces for braced bodies, the
    /// expression span for expression-bodied closures. `None` for bodyless
    /// items (`mod x;`, trait method declarations).
    pub body: Option<(usize, usize)>,
    /// Nested items and closures, in source order.
    pub children: Vec<Node>,
}

/// Discriminates [`Node`]s.
pub enum NodeKind {
    /// The whole file.
    Root,
    /// `mod name { … }` or `mod name;` — carries the module name.
    Mod(String),
    /// `fn` item with its recovered signature.
    Fn(FnSig),
    /// `impl Type { … }` / `impl Trait for Type { … }`.
    Impl {
        /// Last path segment of the self type (`SparseLoadProcess`).
        type_name: String,
        /// Last path segment of the implemented trait, if any (`Engine`).
        trait_name: Option<String>,
    },
    /// `trait Name { … }` — carries the trait name.
    Trait(String),
    /// A closure (`|x| …`, `move || …`).
    Closure {
        /// Whether this closure runs under a rayon parallel entry point,
        /// directly (argument to `par_*`/`spawn`/`join`/`scope`) or by
        /// lexical nesting inside such a closure.
        parallel: bool,
        /// Parameter binding names (over-approximate for patterns).
        params: Vec<String>,
    },
}

/// Signature facts recovered for a `fn` item.
pub struct FnSig {
    /// Function name.
    pub name: String,
    /// Whether the item carries `pub` (any visibility spelled `pub…`).
    pub is_pub: bool,
    /// Whether the parameter list takes an RNG (`&mut Xoshiro256pp`,
    /// `&mut SplitMix64`, `impl Rng`, `R: Rng`-shaped, or a binding
    /// literally named `rng`).
    pub takes_rng: bool,
    /// Whether the doc block above the item contains a `# RNG stream`
    /// section heading.
    pub has_stream_doc: bool,
    /// Whether the return type names an RNG type (`-> Xoshiro256pp` etc.),
    /// i.e. the function hands a generator to its caller.
    pub constructs_rng_return: bool,
}

/// Names that put their closure arguments under rayon. `install` covers
/// `ThreadPool::install`; everything `par_`-prefixed covers the iterator
/// entry points of the vendored rayon.
fn is_par_entry(name: &str) -> bool {
    matches!(
        name,
        "spawn" | "join" | "scope" | "install" | "into_par_iter"
    ) || name.starts_with("par_")
}

/// Lexes and structurizes `src`.
pub fn structurize(src: &str) -> Structure {
    let toks = lex(src);
    let code: Vec<usize> = toks
        .iter()
        .enumerate()
        .filter(|(_, t)| t.is_code())
        .map(|(i, _)| i)
        .collect();
    let root = {
        let v = View {
            src,
            toks: &toks,
            code: &code,
        };
        parse(&v)
    };
    Structure { toks, code, root }
}

/// Checks the tiling invariant: the root covers `[0, ncode)` and every
/// node's children are ordered, disjoint, non-empty ranges nested within
/// their parent. Returns a human-readable violation on failure.
pub fn validate_tiling(root: &Node, ncode: usize) -> Result<(), String> {
    if root.start != 0 || root.end != ncode {
        return Err(format!(
            "root covers [{}, {}) but file has {} code tokens",
            root.start, root.end, ncode
        ));
    }
    check_node(root)
}

fn check_node(n: &Node) -> Result<(), String> {
    if n.start > n.end {
        return Err(format!("inverted node range [{}, {})", n.start, n.end));
    }
    if let Some((blo, bhi)) = n.body {
        if blo < n.start || bhi > n.end || blo > bhi {
            return Err(format!(
                "body [{blo}, {bhi}) escapes node [{}, {})",
                n.start, n.end
            ));
        }
    }
    let mut prev = n.start;
    for c in &n.children {
        if c.start < prev || c.end > n.end {
            return Err(format!(
                "child [{}, {}) not nested in order within [{}, {}) (prev end {})",
                c.start, c.end, n.start, n.end, prev
            ));
        }
        if c.start >= c.end {
            return Err(format!("empty child range [{}, {})", c.start, c.end));
        }
        prev = c.end;
        check_node(c)?;
    }
    Ok(())
}

/// Code-token view of a file: `code[i]` indexes into `toks`.
pub(crate) struct View<'s> {
    pub src: &'s str,
    pub toks: &'s [Token],
    pub code: &'s [usize],
}

impl View<'_> {
    pub(crate) fn t(&self, i: usize) -> &Token {
        &self.toks[self.code[i]]
    }
    pub(crate) fn s(&self, i: usize) -> &str {
        self.t(i).text(self.src)
    }
    pub(crate) fn kind(&self, i: usize) -> TokKind {
        self.t(i).kind
    }
}

/// Parses the whole file into a tree rooted at a [`NodeKind::Root`] node.
pub(crate) fn parse(v: &View) -> Node {
    let n = v.code.len();
    let mut children = Vec::new();
    parse_range(v, 0, n, false, &mut children);
    Node {
        kind: NodeKind::Root,
        start: 0,
        end: n,
        body: Some((0, n)),
        children,
    }
}

/// Scans `[lo, hi)` for items and closures, pushing child nodes onto
/// `out`. `parallel` is the lexical rayon context inherited from the
/// enclosing closure (reset to `false` inside `fn` bodies: a nested fn
/// runs wherever it is *called*, which the call-graph pass handles).
fn parse_range(v: &View, lo: usize, hi: usize, parallel: bool, out: &mut Vec<Node>) {
    let mut i = lo;
    // Start of the current modifier run (`pub`, `const`, `async`, …) so an
    // item node owns its modifiers too.
    let mut prefix: Option<usize> = None;
    while i < hi {
        let txt = v.s(i);
        match txt {
            "pub" => {
                prefix.get_or_insert(i);
                i += 1;
                if i < hi && v.s(i) == "(" {
                    i = skip_group(v, i, hi, "(", ")");
                }
            }
            "const" | "async" | "unsafe" | "extern" | "default" => {
                prefix.get_or_insert(i);
                i += 1;
            }
            "fn" => {
                let start = prefix.take().unwrap_or(i);
                i = parse_fn(v, start, i, hi, out);
            }
            "mod" => {
                let start = prefix.take().unwrap_or(i);
                i = parse_mod(v, start, i, hi, out);
            }
            "impl" => {
                let start = prefix.take().unwrap_or(i);
                i = parse_impl_or_trait(v, start, i, hi, false, out);
            }
            "trait" => {
                let start = prefix.take().unwrap_or(i);
                i = parse_impl_or_trait(v, start, i, hi, true, out);
            }
            "move" if i + 1 < hi && matches!(v.s(i + 1), "|" | "||") => {
                prefix = None;
                i = parse_closure(v, i, i + 1, lo, hi, parallel, out);
            }
            "|" | "||" if is_closure_pipe(v, i, lo) => {
                prefix = None;
                i = parse_closure(v, i, i, lo, hi, parallel, out);
            }
            _ => {
                // `extern "C" fn`: a string literal keeps the prefix alive.
                if v.kind(i) != TokKind::Str {
                    prefix = None;
                }
                i += 1;
            }
        }
    }
}

/// Parses `fn name<…>(…) -> … { … }` starting at the `fn` keyword (`kw`),
/// with the node owning tokens from `start` (the modifier run). Returns
/// the index to resume scanning at.
fn parse_fn(v: &View, start: usize, kw: usize, hi: usize, out: &mut Vec<Node>) -> usize {
    let name_i = kw + 1;
    if name_i >= hi || v.kind(name_i) != TokKind::Ident {
        // `fn(u64) -> u64` in type position — not an item.
        return kw + 1;
    }
    let name = v.s(name_i).to_string();
    let mut j = name_i + 1;
    // An `R: Rng` bound in the generics makes the fn RNG-generic; the
    // parameter taking `&mut R` then counts as an RNG param.
    let mut takes_rng = false;
    if j < hi && v.s(j) == "<" {
        let after = skip_angles(v, j, hi);
        takes_rng = (j..after).any(|k| v.s(k) == "Rng");
        j = after;
    }
    if j < hi && v.s(j) == "(" {
        let close = match_group(v, j, hi, "(", ")");
        takes_rng = takes_rng || params_take_rng(v, j + 1, close.min(hi));
        j = (close + 1).min(hi);
    }
    // Return type and where clause: scan to the body `{` or a bare `;`,
    // skipping bracketed groups so `-> [u8; 4]` cannot end the signature.
    let mut constructs_rng_return = false;
    while j < hi {
        match v.s(j) {
            "{" | ";" => break,
            "(" => j = (match_group(v, j, hi, "(", ")") + 1).min(hi),
            "[" => j = (match_group(v, j, hi, "[", "]") + 1).min(hi),
            "<" => j = skip_angles(v, j, hi),
            s => {
                if matches!(s, "Xoshiro256pp" | "SplitMix64" | "Rng") {
                    constructs_rng_return = true;
                }
                j += 1;
            }
        }
    }
    let is_pub = (start..kw).any(|k| v.s(k) == "pub");
    let sig = FnSig {
        name,
        is_pub,
        takes_rng,
        has_stream_doc: doc_has_stream_section(v, start),
        constructs_rng_return,
    };
    let (body, end) = braced_body(v, j, hi);
    let mut children = Vec::new();
    if let Some((blo, bhi)) = body {
        parse_range(v, blo, bhi, false, &mut children);
    }
    out.push(Node {
        kind: NodeKind::Fn(sig),
        start,
        end,
        body,
        children,
    });
    end
}

/// Parses `mod name { … }` or `mod name;`.
fn parse_mod(v: &View, start: usize, kw: usize, hi: usize, out: &mut Vec<Node>) -> usize {
    let name_i = kw + 1;
    if name_i >= hi || v.kind(name_i) != TokKind::Ident {
        return kw + 1;
    }
    let name = v.s(name_i).to_string();
    let (body, end) = braced_body(v, name_i + 1, hi);
    let mut children = Vec::new();
    if let Some((blo, bhi)) = body {
        parse_range(v, blo, bhi, false, &mut children);
    }
    out.push(Node {
        kind: NodeKind::Mod(name),
        start,
        end,
        body,
        children,
    });
    end
}

/// Parses `impl<…> Trait for Type { … }` / `impl Type { … }` /
/// `trait Name: Bounds { … }`, each optionally with a `where` clause. Falls
/// back to skipping the keyword when the header does not reach a `{` (e.g.
/// `impl Trait` in type position that escaped the signature scans).
fn parse_impl_or_trait(
    v: &View,
    start: usize,
    kw: usize,
    hi: usize,
    is_trait: bool,
    out: &mut Vec<Node>,
) -> usize {
    let mut j = kw + 1;
    let mut last_ident: Option<String> = None;
    let mut trait_name: Option<String> = None;
    while j < hi {
        match v.s(j) {
            "{" => break,
            ";" | ")" | "]" | "}" | "=" | "," => return kw + 1,
            "<" => j = skip_angles(v, j, hi),
            "(" => j = (match_group(v, j, hi, "(", ")") + 1).min(hi),
            "for" => {
                trait_name = last_ident.take();
                j += 1;
            }
            // The self type is complete; skip the clause, whose bounds may
            // hold `,` and `(…)`, up to the body.
            "where" => {
                while j < hi && v.s(j) != "{" {
                    j = match v.s(j) {
                        ";" => return kw + 1,
                        "<" => skip_angles(v, j, hi),
                        "(" => (match_group(v, j, hi, "(", ")") + 1).min(hi),
                        _ => j + 1,
                    };
                }
                break;
            }
            _ => {
                if v.kind(j) == TokKind::Ident {
                    last_ident = Some(v.s(j).to_string());
                }
                j += 1;
            }
        }
    }
    if j >= hi {
        return kw + 1;
    }
    let type_name = match last_ident {
        Some(n) => n,
        None => return kw + 1,
    };
    let (body, end) = braced_body(v, j, hi);
    let mut children = Vec::new();
    if let Some((blo, bhi)) = body {
        parse_range(v, blo, bhi, false, &mut children);
    }
    out.push(Node {
        kind: if is_trait {
            NodeKind::Trait(type_name)
        } else {
            NodeKind::Impl {
                type_name,
                trait_name,
            }
        },
        start,
        end,
        body,
        children,
    });
    end
}

/// Parses a closure starting at `node_start` (`move` or the pipe), with
/// `pipe_i` at the `|`/`||` token. Returns the resume index.
fn parse_closure(
    v: &View,
    node_start: usize,
    pipe_i: usize,
    lo: usize,
    hi: usize,
    inherited_parallel: bool,
    out: &mut Vec<Node>,
) -> usize {
    let parallel = inherited_parallel || parallel_call_context(v, node_start, lo);
    let mut params = Vec::new();
    let mut j;
    if v.s(pipe_i) == "||" {
        j = pipe_i + 1;
    } else {
        // Scan to the closing `|` at delimiter depth 0, collecting binding
        // names (idents outside type position: `:` enters a type at depth
        // 0, `,` at depth 0 leaves it).
        j = pipe_i + 1;
        let mut depth = 0usize;
        let mut in_type = false;
        while j < hi {
            match v.s(j) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        break; // unbalanced — bail, closing pipe missing
                    }
                    depth -= 1;
                }
                "|" if depth == 0 => break,
                ":" if depth == 0 => in_type = true,
                "," if depth == 0 => in_type = false,
                _ => {
                    if !in_type && v.kind(j) == TokKind::Ident {
                        params.push(v.s(j).to_string());
                    }
                }
            }
            j += 1;
        }
        if j < hi && v.s(j) == "|" {
            j += 1;
        }
    }
    // Optional return-type annotation: `|x| -> u64 { … }`.
    if j < hi && v.s(j) == "->" {
        j += 1;
        while j < hi {
            match v.s(j) {
                "{" => break,
                "(" => j = (match_group(v, j, hi, "(", ")") + 1).min(hi),
                "[" => j = (match_group(v, j, hi, "[", "]") + 1).min(hi),
                "<" => j = skip_angles(v, j, hi),
                _ => j += 1,
            }
        }
    }
    let (body, end) = if j < hi && v.s(j) == "{" {
        let close = match_group(v, j, hi, "{", "}");
        (Some((j + 1, close.min(hi))), (close + 1).min(hi))
    } else {
        // Expression body: runs to a depth-0 `,` `;` or closing delimiter.
        let mut depth = 0usize;
        let mut k = j;
        while k < hi {
            match v.s(k) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                "," | ";" if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        (Some((j, k)), k)
    };
    let end = end.max(node_start + 1);
    let mut children = Vec::new();
    if let Some((blo, bhi)) = body {
        parse_range(v, blo, bhi, parallel, &mut children);
    }
    out.push(Node {
        kind: NodeKind::Closure { parallel, params },
        start: node_start,
        end,
        body,
        children,
    });
    end
}

/// Is the `|` / `||` at `i` a closure head rather than a binary operator
/// or an or-pattern? Decided from the previous code token: after a value
/// (identifier, literal, or a closing `)` `]` `}` `?`) it is an operator;
/// after a keyword that ends a non-value position, an opening delimiter,
/// or any other punctuation it opens a closure.
fn is_closure_pipe(v: &View, i: usize, lo: usize) -> bool {
    if i == lo {
        return true;
    }
    let p = i - 1;
    match v.kind(p) {
        TokKind::Ident => matches!(
            v.s(p),
            "return" | "else" | "in" | "match" | "if" | "while" | "break" | "await" | "yield"
        ),
        TokKind::Number | TokKind::Str | TokKind::Char | TokKind::Lifetime => false,
        TokKind::Punct => !matches!(v.s(p), ")" | "]" | "}" | "?"),
        _ => true,
    }
}

/// Does the closure starting at `start` sit in argument position of a
/// parallel entry-point call? Walks backwards at delimiter depth 0 to the
/// unmatched `(` of the enclosing call, then follows the receiver chain
/// (`(0..n).into_par_iter().map(|i| …)` → `map` → `into_par_iter`).
fn parallel_call_context(v: &View, start: usize, lo: usize) -> bool {
    let mut depth = 0usize;
    let mut i = start;
    while i > lo {
        i -= 1;
        match v.s(i) {
            ")" | "]" | "}" => depth += 1,
            "(" => {
                if depth == 0 {
                    return i > lo
                        && v.kind(i - 1) == TokKind::Ident
                        && callee_chain_is_par(v, i - 1, lo);
                }
                depth -= 1;
            }
            "[" | "{" => {
                if depth == 0 {
                    return false;
                }
                depth -= 1;
            }
            ";" if depth == 0 => return false,
            _ => {}
        }
    }
    false
}

/// From the callee name at `name_i`, checks the name itself and then each
/// method in the `.`-chained receiver (skipping call parens backwards).
fn callee_chain_is_par(v: &View, mut name_i: usize, lo: usize) -> bool {
    loop {
        if is_par_entry(v.s(name_i)) {
            return true;
        }
        if name_i < lo + 2 || v.s(name_i - 1) != "." {
            return false;
        }
        let r = name_i - 2;
        if v.s(r) != ")" {
            return false; // field or variable receiver — chain ends
        }
        // Skip the previous call's argument list backwards.
        let mut depth = 1usize;
        let mut k = r;
        while k > lo && depth > 0 {
            k -= 1;
            match v.s(k) {
                ")" => depth += 1,
                "(" => depth -= 1,
                _ => {}
            }
        }
        if depth != 0 || k == lo || v.kind(k - 1) != TokKind::Ident {
            return false;
        }
        name_i = k - 1;
    }
}

/// Finds a `{ … }` body starting the scan at `j` (which should already be
/// at the `{` or `;`). Returns (interior range, resume index); clamps on
/// unbalanced input.
fn braced_body(v: &View, j: usize, hi: usize) -> (Option<(usize, usize)>, usize) {
    if j < hi && v.s(j) == "{" {
        let close = match_group(v, j, hi, "{", "}");
        (Some((j + 1, close.min(hi))), (close + 1).min(hi))
    } else if j < hi && v.s(j) == ";" {
        (None, j + 1)
    } else {
        (None, j.min(hi))
    }
}

/// Forward scan from the opener at `open` to its matching closer; returns
/// the closer's index, or `hi` when unbalanced (clamped, never panics).
fn match_group(v: &View, open: usize, hi: usize, op: &str, cl: &str) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < hi {
        let s = v.s(i);
        if s == op {
            depth += 1;
        } else if s == cl {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    hi
}

/// Skips a generic-argument group starting at `<`, counting `<`/`<<`
/// against `>`/`>>` and skipping parenthesized groups (`Fn(u64) -> u64`
/// bounds). Bails (returns the offending index) at `{` or `;` so a stray
/// comparison cannot swallow a body.
fn skip_angles(v: &View, open: usize, hi: usize) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < hi {
        match v.s(i) {
            "<" => depth += 1,
            "<<" => depth += 2,
            ">" => depth -= 1,
            ">>" => depth -= 2,
            "(" => {
                i = match_group(v, i, hi, "(", ")");
                if i >= hi {
                    return hi;
                }
            }
            "{" | ";" => return i,
            _ => {}
        }
        i += 1;
        if depth <= 0 {
            return i;
        }
    }
    hi
}

/// Does a parameter list `[lo, hi)` (interior of the signature parens)
/// take an RNG? True for concrete RNG types, an `impl Rng` / `R: Rng`
/// bound spelled in the list, or a binding literally named `rng`.
fn params_take_rng(v: &View, lo: usize, hi: usize) -> bool {
    (lo..hi.min(v.code.len())).any(|i| {
        matches!(v.s(i), "Xoshiro256pp" | "SplitMix64" | "Rng")
            || (v.s(i) == "rng" && i + 1 < hi && v.s(i + 1) == ":")
    })
}

/// Skips one token group `op … cl` starting at `open`; resume index.
fn skip_group(v: &View, open: usize, hi: usize, op: &str, cl: &str) -> usize {
    (match_group(v, open, hi, op, cl) + 1).min(hi)
}

/// Does the doc block immediately above the item starting at code index
/// `item_start` contain a `# RNG stream` section? Walks backwards in the
/// *raw* token stream over doc comments, plain comments, and attributes.
fn doc_has_stream_section(v: &View, item_start: usize) -> bool {
    let mut r = v.code[item_start];
    while r > 0 {
        let k = r - 1;
        let t = &v.toks[k];
        match t.kind {
            TokKind::DocComment => {
                if t.text(v.src).contains("# RNG stream") {
                    return true;
                }
                r = k;
            }
            TokKind::Comment => r = k,
            TokKind::Punct if t.text(v.src) == "]" => {
                // Skip an attribute `#[…]` (or inner `#![…]`) backwards.
                let mut depth = 1usize;
                let mut j = k;
                while j > 0 && depth > 0 {
                    j -= 1;
                    match v.toks[j].text(v.src) {
                        "]" => depth += 1,
                        "[" => depth -= 1,
                        _ => {}
                    }
                }
                if depth != 0 {
                    return false;
                }
                if j > 0 && v.toks[j - 1].text(v.src) == "!" {
                    j -= 1;
                }
                if j > 0 && v.toks[j - 1].text(v.src) == "#" {
                    j -= 1;
                } else {
                    return false; // `]` that is not an attribute — stop
                }
                r = j;
            }
            _ => return false,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(src: &str) -> Structure {
        let s = structurize(src);
        validate_tiling(&s.root, s.code.len()).expect("tiling");
        s
    }

    fn flat<'a>(n: &'a Node, out: &mut Vec<&'a Node>) {
        for c in &n.children {
            out.push(c);
            flat(c, out);
        }
    }

    fn all_nodes(s: &Structure) -> Vec<&Node> {
        let mut out = Vec::new();
        flat(&s.root, &mut out);
        out
    }

    #[test]
    fn nested_items_form_a_tree() {
        let s = tree(
            "mod outer {\n\
             pub struct S;\n\
             impl Engine for S { fn round(&mut self) { let x = 1; } }\n\
             pub trait T { fn decl(&self); }\n\
             }\n\
             mod stub;\n",
        );
        assert_eq!(s.root.children.len(), 2);
        let outer = &s.root.children[0];
        assert!(matches!(&outer.kind, NodeKind::Mod(n) if n == "outer"));
        assert_eq!(outer.children.len(), 2);
        match &outer.children[0].kind {
            NodeKind::Impl {
                type_name,
                trait_name,
            } => {
                assert_eq!(type_name, "S");
                assert_eq!(trait_name.as_deref(), Some("Engine"));
            }
            _ => panic!("expected impl"),
        }
        let imp = &outer.children[0];
        assert_eq!(imp.children.len(), 1);
        assert!(matches!(&imp.children[0].kind, NodeKind::Fn(f) if f.name == "round"));
        match &outer.children[1].kind {
            NodeKind::Trait(n) => assert_eq!(n, "T"),
            _ => panic!("expected trait"),
        }
        // `fn decl(&self);` — bodyless but still a node owning its tokens.
        let decl = &outer.children[1].children[0];
        assert!(matches!(&decl.kind, NodeKind::Fn(f) if f.name == "decl"));
        assert!(decl.body.is_none());
        assert!(matches!(&s.root.children[1].kind, NodeKind::Mod(n) if n == "stub"));
    }

    /// The self type (or trait name) of the first impl/trait node of `src`.
    fn header_name(src: &str) -> Option<(String, Option<String>)> {
        let s = tree(src);
        all_nodes(&s).into_iter().find_map(|n| match &n.kind {
            NodeKind::Impl {
                type_name,
                trait_name,
            } => Some((type_name.clone(), trait_name.clone())),
            NodeKind::Trait(name) => Some((name.clone(), None)),
            _ => None,
        })
    }

    #[test]
    fn impl_headers_with_where_clauses() {
        let engine = Some(("LoadEngine".to_string(), Some("Engine".to_string())));
        assert_eq!(
            header_name("impl<S> Engine for LoadEngine<S> where S: LoadStore { fn f() {} }"),
            engine
        );
        // The rustfmt layout: `where` on its own line, the bound ending in `,`.
        assert_eq!(
            header_name(
                "impl<S, F> Engine for LoadEngine<S>\nwhere\n    S: LoadStore + Clone,\n    \
                 F: Fn(u32) -> Vec<u32>,\n{\n    fn f() {}\n}\n"
            ),
            engine
        );
        assert_eq!(
            header_name("trait T where Self: Sized {}"),
            Some(("T".to_string(), None))
        );
    }

    #[test]
    fn fn_signature_facts() {
        let s = tree(
            "/// Draws.\n///\n/// # RNG stream\n///\n/// One draw.\n\
             #[inline]\npub fn draw(rng: &mut Xoshiro256pp) -> u64 { rng.next_u64() }\n\
             fn helper<R: Rng>(r: &mut R) -> [u8; 4] { [0; 4] }\n\
             pub fn make(seed: u64) -> Xoshiro256pp { Xoshiro256pp::seed_from(seed) }\n\
             fn plain(n: usize) -> usize { n }\n",
        );
        let sigs: Vec<&FnSig> = s
            .root
            .children
            .iter()
            .filter_map(|n| match &n.kind {
                NodeKind::Fn(f) => Some(f),
                _ => None,
            })
            .collect();
        assert_eq!(sigs.len(), 4);
        assert!(sigs[0].is_pub && sigs[0].takes_rng && sigs[0].has_stream_doc);
        assert!(!sigs[0].constructs_rng_return);
        assert!(!sigs[1].is_pub && sigs[1].takes_rng && !sigs[1].has_stream_doc);
        assert!(sigs[2].is_pub && !sigs[2].takes_rng && sigs[2].constructs_rng_return);
        assert!(!sigs[3].takes_rng && !sigs[3].constructs_rng_return);
    }

    #[test]
    fn closures_and_parallel_context() {
        let s = tree(
            "fn seq(v: &[u64]) -> u64 { v.iter().map(|x| x + 1).sum() }\n\
             fn par(n: u64) -> u64 { (0..n).into_par_iter().map(|i| i * 2).sum() }\n\
             fn spawned() { spawn(move || { inner(|y| y); }); }\n\
             fn both() { join(|| left(), || right()); }\n\
             fn or(a: bool, b: bool) -> bool { a || b }\n",
        );
        let nodes = all_nodes(&s);
        let closures: Vec<(bool, usize)> = nodes
            .iter()
            .filter_map(|n| match &n.kind {
                NodeKind::Closure { parallel, params } => Some((*parallel, params.len())),
                _ => None,
            })
            .collect();
        // seq: |x| not parallel; par: |i| parallel; spawned: move || parallel
        // with nested |y| inheriting; both: two parallel closures; or: none.
        assert_eq!(
            closures,
            vec![
                (false, 1),
                (true, 1),
                (true, 0),
                (true, 1),
                (true, 0),
                (true, 0)
            ]
        );
    }

    #[test]
    fn receiver_chain_walks_through_calls() {
        let s = tree("fn f(w: &W) { w.bins.par_chunks(64).for_each(|c| touch(c)); }");
        let nodes = all_nodes(&s);
        let par: Vec<bool> = nodes
            .iter()
            .filter_map(|n| match &n.kind {
                NodeKind::Closure { parallel, .. } => Some(*parallel),
                _ => None,
            })
            .collect();
        assert_eq!(par, vec![true]);
    }

    #[test]
    fn pattern_or_and_operators_are_not_closures() {
        let s = tree(
            "fn f(x: Option<u64>) -> u64 {\n\
             match x { Some(0) | None => 0, Some(v) => v }\n\
             }\n\
             fn g(a: u64, b: u64) -> u64 { a | b }\n",
        );
        assert!(all_nodes(&s)
            .iter()
            .all(|n| !matches!(n.kind, NodeKind::Closure { .. })));
    }

    #[test]
    fn expression_bodied_closures_end_at_commas() {
        let s = tree("fn f() { run(|| step(), 4, |k| grid[k / 3].get(k % 3)); }");
        let closures: Vec<(usize, usize)> = all_nodes(&s)
            .iter()
            .filter_map(|n| match &n.kind {
                NodeKind::Closure { .. } => n.body,
                _ => None,
            })
            .collect();
        assert_eq!(closures.len(), 2);
        // Bodies must not swallow the `, 4,` separator tokens.
        let s2 = &s;
        let body_text = |r: (usize, usize)| {
            (r.0..r.1)
                .map(|i| {
                    let v = View {
                        src: s2_src(),
                        toks: &s2.toks,
                        code: &s2.code,
                    };
                    v.s(i).to_string()
                })
                .collect::<Vec<_>>()
                .join(" ")
        };
        fn s2_src() -> &'static str {
            "fn f() { run(|| step(), 4, |k| grid[k / 3].get(k % 3)); }"
        }
        assert_eq!(body_text(closures[0]), "step ( )");
        assert_eq!(body_text(closures[1]), "grid [ k / 3 ] . get ( k % 3 )");
    }

    #[test]
    fn unbalanced_input_still_tiles() {
        for src in [
            "fn broken() { if x { }",
            "fn b() { } }",
            "impl Foo for { }",
            "fn c() { v.map(|x| { x) }",
            "macro_rules! m { ($x:expr) => { $x | 1 } }",
            "fn d() { let a = <T as B>::c(); a < b }",
            "trait ;",
            "mod {",
            "fn",
        ] {
            let s = structurize(src);
            validate_tiling(&s.root, s.code.len())
                .unwrap_or_else(|e| panic!("tiling failed on {src:?}: {e}"));
        }
    }

    #[test]
    fn fn_bodies_reset_parallel_context() {
        // An fn nested inside a parallel closure is not itself "parallel"
        // lexically — where it runs depends on its callers.
        let s = tree("fn f() { spawn(move || { fn helper() { g(|z| z); } helper(); }); }");
        let inner: Vec<bool> = all_nodes(&s)
            .iter()
            .filter_map(|n| match &n.kind {
                NodeKind::Closure { parallel, params } if params.len() == 1 => Some(*parallel),
                _ => None,
            })
            .collect();
        assert_eq!(inner, vec![false]);
    }
}
