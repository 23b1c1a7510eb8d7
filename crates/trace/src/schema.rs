//! The schema dialect of `schemas/*.schema.json` and its checker.
//!
//! Every wire document the workspace emits or accepts — trace events,
//! dist frames, serve requests and responses, fuzz reports, metrics
//! snapshots — is described in one small subset of JSON Schema:
//!
//! - `type`: `null`, `boolean`, `number`, `integer` (a number with no
//!   fractional part), `string`, `array` or `object`;
//! - `minimum` is the least number allowed (it says nothing of other
//!   values);
//! - `enum` lists the allowed values, `const` the one allowed value;
//! - `properties` gives an object's fields, `required` those that must
//!   be present;
//! - `items` is the schema of every array element;
//! - `tag` + `variants` is a tagged union: the string field named by
//!   `tag` picks one entry of `variants`, whose `properties` and
//!   `required` extend the object's own. An unknown tag value is an
//!   error, so the variant set is closed. A variant carries only
//!   `properties`, `required`, `open` and `$comment`; its `required` may
//!   name the object's properties, its `properties` may not redeclare
//!   them.
//!
//! Objects are closed: a field that neither the object nor its chosen
//! variant lists under `properties` is an error, unless the object (or
//! the variant) says `"open": true`. The root names the document format
//! in `$id`; `$comment` may annotate any node. Any other keyword is a
//! load error, so a typo in a schema file cannot silently accept more.

use std::collections::BTreeMap;

use crate::json::{self, Value};

const TYPES: [&str; 7] = [
    "null", "boolean", "number", "integer", "string", "array", "object",
];

/// The keywords of a variant: it only extends its object's fields.
const VARIANT_KEYWORDS: [&str; 4] = ["$comment", "properties", "required", "open"];

/// A loaded schema: the format name (`$id`) and the root node.
#[derive(Debug)]
pub struct Schema {
    id: String,
    root: Node,
}

#[derive(Debug, Default)]
struct Node {
    ty: Option<&'static str>,
    minimum: Option<f64>,
    one_of: Option<Vec<Value>>,
    properties: BTreeMap<String, Node>,
    required: Vec<String>,
    open: bool,
    items: Option<Box<Node>>,
    tag: Option<String>,
    variants: BTreeMap<String, Node>,
}

impl Schema {
    /// Loads a schema document, rejecting unknown keywords, `required`
    /// fields that `properties` does not list, a `tag` without
    /// `variants` or that is not required, and a variant that says more
    /// than its fields or redeclares one of its object's.
    pub fn parse(text: &str) -> Result<Schema, String> {
        let doc = json::parse(text)?;
        let id = doc.get("$id").and_then(Value::as_str);
        Ok(Schema {
            id: id.ok_or("schema lacks a string \"$id\"")?.to_string(),
            root: Node::compile(&doc, "", false)?,
        })
    }

    /// The document format this schema describes (its `$id`).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Checks one document. On success returns the variant picked by
    /// its outermost tagged object, if any, for per-variant counts.
    pub fn check(&self, doc: &Value) -> Result<Option<&str>, String> {
        self.root.check(doc, "")
    }
}

impl Node {
    /// Compiles the schema node `v`; a `variant` node may only carry
    /// [`VARIANT_KEYWORDS`], and its parent checks its `required`.
    fn compile(v: &Value, at: &str, variant: bool) -> Result<Node, String> {
        let obj = v.as_obj().ok_or_else(|| located(at, "not an object"))?;
        let mut node = Node::default();
        for (key, val) in obj {
            let bad = || located(at, &format!("bad {key:?}"));
            if variant && !VARIANT_KEYWORDS.contains(&key.as_str()) {
                return Err(located(at, &format!("a variant may not say {key:?}")));
            }
            match key.as_str() {
                "$id" | "$comment" => {}
                "type" => {
                    let ty = val
                        .as_str()
                        .and_then(|ty| TYPES.into_iter().find(|t| *t == ty));
                    node.ty = Some(ty.ok_or_else(bad)?);
                }
                "minimum" => node.minimum = Some(val.as_num().ok_or_else(bad)?),
                "enum" => node.one_of = Some(val.as_arr().ok_or_else(bad)?.to_vec()),
                "const" => node.one_of = Some(vec![val.clone()]),
                "required" => {
                    for name in val.as_arr().ok_or_else(bad)? {
                        let name = name.as_str().ok_or_else(bad)?;
                        node.required.push(name.to_string());
                    }
                }
                "properties" | "variants" => {
                    let mut nodes = BTreeMap::new();
                    for (name, sub) in val.as_obj().ok_or_else(bad)? {
                        let sub = Node::compile(sub, &join(at, name), key == "variants")?;
                        nodes.insert(name.clone(), sub);
                    }
                    if key == "properties" {
                        node.properties = nodes;
                    } else {
                        node.variants = nodes;
                    }
                }
                "items" => {
                    node.items = Some(Box::new(Node::compile(val, &format!("{at}[]"), false)?))
                }
                "open" => node.open = val.as_bool().ok_or_else(bad)?,
                "tag" => node.tag = Some(val.as_str().ok_or_else(bad)?.to_string()),
                other => return Err(located(at, &format!("unknown keyword {other:?}"))),
            }
        }
        let props = &node.properties;
        let unknown = |required: &[String], own: &BTreeMap<String, Node>| {
            let name = required
                .iter()
                .find(|n| !own.contains_key(*n) && !props.contains_key(*n));
            name.map_or(Ok(()), |name| {
                Err(format!("required {name:?} is not a property"))
            })
        };
        if !variant {
            unknown(&node.required, props).map_err(|e| located(at, &e))?;
        }
        for (name, var) in &node.variants {
            let at = join(at, name);
            unknown(&var.required, &var.properties).map_err(|e| located(&at, &e))?;
            if let Some(field) = var.properties.keys().find(|f| props.contains_key(*f)) {
                return Err(located(&at, &format!("redeclares {field:?}")));
            }
        }
        let tag_ok = matches!(&node.tag, Some(tag) if node.required.contains(tag));
        if tag_ok == node.variants.is_empty() || (node.tag.is_some() && !tag_ok) {
            return Err(located(at, "variants need a required tag"));
        }
        Ok(node)
    }

    /// Checks `v`; returns the variant picked by the outermost tagged
    /// object at or below this node.
    fn check(&self, v: &Value, at: &str) -> Result<Option<&str>, String> {
        let integral = matches!(v, Value::Num(n) if n.fract() == 0.0);
        let has_type = |ty: &str| ty == type_name(v) || (ty == "integer" && integral);
        if let Some(ty) = self.ty.filter(|ty| !has_type(ty)) {
            return Err(located(
                at,
                &format!("expected {ty}, found {}", type_name(v)),
            ));
        }
        if let (Some(min), Value::Num(n)) = (self.minimum, v) {
            if *n < min {
                return Err(located(
                    at,
                    &format!("{} is below the minimum {min}", show(v)),
                ));
            }
        }
        if let Some(allowed) = self.one_of.as_ref().filter(|allowed| !allowed.contains(v)) {
            let alts: Vec<String> = allowed.iter().map(show).collect();
            return Err(located(
                at,
                &format!("{} is not {}", show(v), alts.join(" or ")),
            ));
        }
        let mut picked = None;
        if let (Value::Arr(elems), Some(items)) = (v, &self.items) {
            for (i, elem) in elems.iter().enumerate() {
                picked = picked.or(items.check(elem, &format!("{at}[{i}]"))?);
            }
        }
        let Value::Obj(fields) = v else {
            return Ok(picked);
        };
        let missing = |node: &Node| match node.required.iter().find(|n| !fields.contains_key(*n)) {
            Some(name) => Err(located(at, &format!("missing field {name:?}"))),
            None => Ok(()),
        };
        missing(self)?;
        for (name, value) in fields {
            if let Some(sub) = self.properties.get(name) {
                picked = picked.or(sub.check(value, &join(at, name))?);
            }
        }
        let mut variant = None;
        if let Some(tag) = &self.tag {
            let name = fields.get(tag).and_then(Value::as_str).unwrap_or_default();
            let (name, node) = self
                .variants
                .get_key_value(name)
                .ok_or_else(|| located(at, &format!("unknown {tag} {name:?}")))?;
            missing(node)?;
            variant = Some(node);
            picked = Some(name.as_str());
        }
        let open = self.open || variant.is_some_and(|node| node.open);
        for (name, value) in fields
            .iter()
            .filter(|(name, _)| !self.properties.contains_key(*name))
        {
            match variant.and_then(|node| node.properties.get(name)) {
                Some(sub) => picked = picked.or(sub.check(value, &join(at, name))?),
                None if open => {}
                None => return Err(located(at, &format!("unexpected field {name:?}"))),
            }
        }
        Ok(picked)
    }
}

fn type_name(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "boolean",
        Value::Num(_) => "number",
        Value::Str(_) => "string",
        Value::Arr(_) => "array",
        Value::Obj(_) => "object",
    }
}

/// A scalar as it is written in JSON; a container by its type.
fn show(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("{s:?}"),
        Value::Num(n) => n.to_string(),
        Value::Bool(b) => b.to_string(),
        other => type_name(other).to_string(),
    }
}

/// `msg`, prefixed with the path `at` of the value it is about.
fn located(at: &str, msg: &str) -> String {
    if at.is_empty() {
        msg.to_string()
    } else {
        format!("{at}: {msg}")
    }
}

fn join(at: &str, name: &str) -> String {
    if at.is_empty() {
        name.to_string()
    } else {
        format!("{at}.{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_schemas_are_load_errors() {
        let variant = |a: &str| {
            let envelope = r#""required":["k"],"properties":{"k":{}},"tag":"k""#;
            format!(r#"{{"$id":"x",{envelope},"variants":{{"a":{a}}}}}"#)
        };
        for (text, reason) in [
            (r#"{"type":"object"}"#.to_string(), "lacks a string \"$id\""),
            (
                r#"{"$id":"x","typ":"object"}"#.into(),
                "unknown keyword \"typ\"",
            ),
            (r#"{"$id":"x","type":"strnig"}"#.into(), "bad \"type\""),
            (r#"{"$id":"x","minimum":"0"}"#.into(), "bad \"minimum\""),
            (
                r#"{"$id":"x","required":["a"]}"#.into(),
                "required \"a\" is not",
            ),
            (r#"{"$id":"x","tag":"kind"}"#.into(), "need a required tag"),
            (
                r#"{"$id":"x","variants":{"a":{}}}"#.into(),
                "need a required tag",
            ),
            (
                variant(r#"{"type":"string"}"#),
                "a: a variant may not say \"type\"",
            ),
            (
                variant(r#"{"tag":"k"}"#),
                "a: a variant may not say \"tag\"",
            ),
            (variant(r#"{"properties":{"k":{}}}"#), "a: redeclares \"k\""),
            (variant(r#"{"required":["z"]}"#), "a: required \"z\" is not"),
        ] {
            let err = Schema::parse(&text).unwrap_err();
            assert!(err.contains(reason), "{text}: {err}");
        }
    }

    #[test]
    fn integers_are_whole_numbers_and_minimums_bound_them() {
        let schema = Schema::parse(
            r#"{"$id":"n","type":"object",
                "properties":{"count":{"type":"integer","minimum":0},
                              "level":{"type":"integer"},
                              "ratio":{"type":"number","minimum":0.5}}}"#,
        )
        .unwrap();
        let check = |doc: &str| schema.check(&json::parse(doc).unwrap()).map(|_| ());
        for doc in [
            r#"{"count":0,"level":-7,"ratio":0.5}"#,
            r#"{"count":3.0}"#,
            "{}",
        ] {
            assert_eq!(check(doc), Ok(()), "{doc}");
        }
        for (doc, reason) in [
            (r#"{"count":-3}"#, "count: -3 is below the minimum 0"),
            (r#"{"level":1.5}"#, "level: expected integer, found number"),
            (r#"{"count":"1"}"#, "count: expected integer, found string"),
            (r#"{"ratio":0.25}"#, "ratio: 0.25 is below the minimum 0.5"),
        ] {
            let err = check(doc).unwrap_err();
            assert!(err.contains(reason), "{doc}: {err}");
        }
    }

    #[test]
    fn variants_extend_the_envelope_and_objects_stay_closed() {
        let schema = Schema::parse(
            r#"{"$id":"t","type":"object","required":["kind"],
                "properties":{"kind":{"type":"string"},"note":{"type":"string"}},
                "tag":"kind",
                "variants":{"a":{"required":["n"],"properties":{"n":{"enum":[1,2]}}},
                            "b":{"open":true},"c":{"required":["note"]}}}"#,
        )
        .unwrap();
        let check = |doc: &str| -> Result<Option<String>, String> {
            Ok(schema.check(&json::parse(doc).unwrap())?.map(str::to_owned))
        };
        assert_eq!(check(r#"{"kind":"a","n":2}"#), Ok(Some("a".into())));
        assert_eq!(check(r#"{"kind":"b","extra":[]}"#), Ok(Some("b".into())));
        assert_eq!(check(r#"{"kind":"c","note":""}"#), Ok(Some("c".into())));
        for (doc, reason) in [
            (r#"{"kind":"d"}"#, "unknown kind \"d\""),
            (r#"{"kind":"a"}"#, "missing field \"n\""),
            (r#"{"kind":"a","n":3}"#, "n: 3 is not 1 or 2"),
            (r#"{"kind":"a","n":"1"}"#, "n: \"1\" is not 1 or 2"),
            (r#"{"kind":"a","n":1,"m":1}"#, "unexpected field \"m\""),
            (r#"{"kind":7}"#, "kind: expected string, found number"),
            (r#"{"kind":"c"}"#, "missing field \"note\""),
            (r#"{"kind":"a","n":1,"note":5}"#, "note: expected string"),
            ("[]", "expected object, found array"),
        ] {
            let err = check(doc).unwrap_err();
            assert!(err.contains(reason), "{doc}: {err}");
        }
    }
}
