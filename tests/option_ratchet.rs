//! Option structs only shrink.
//!
//! Every knob on an option struct is a configuration someone has to get
//! right and a path the tests have to cover; a knob nobody sets is dead
//! code with a default. This scan counts the `pub` fields of the option
//! structs under `crates/` and `src/` and fails when one grows above its
//! ceiling in [`CEILINGS`]. A change that removes a field lowers the
//! ceiling with it. CI runs it in the Chaos step.

mod common;

use std::path::Path;

use common::rust_files;

/// Each struct's `pub` field count when this ratchet was added.
const CEILINGS: [(&str, usize); 9] = [
    ("EngineOptions", 9),
    ("IngressOptions", 8),
    ("EvloopOptions", 4),
    ("TcpOptions", 1),
    ("ScenarioOptions", 2),
    ("NetSpec", 11),
    ("ActorConfig", 4),
    ("GroupStepOptions", 2),
    ("NodeArgs", 9),
];

#[test]
fn option_struct_fields_do_not_grow() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src"] {
        rust_files(&root.join(dir), &mut files);
    }
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|file| {
            let text = std::fs::read_to_string(file)
                .unwrap_or_else(|error| panic!("read {}: {error}", file.display()));
            (file.display().to_string(), text)
        })
        .collect();

    let mut grown = Vec::new();
    for (name, ceiling) in CEILINGS {
        let header = format!("pub struct {name} {{");
        let found: Vec<(&str, usize)> = sources
            .iter()
            .filter_map(|(path, text)| {
                let at = text.find(&header)?;
                Some((path.as_str(), pub_fields(&text[at + header.len()..])))
            })
            .collect();
        let [(path, fields)] = found[..] else {
            panic!("expected one `{header}` under crates/ and src/, found {found:?}");
        };
        if fields > ceiling {
            grown.push(format!(
                "{name} ({path}): {fields} pub fields, ceiling {ceiling}"
            ));
        }
    }
    assert!(
        grown.is_empty(),
        "option structs grew; derive the value from the job or fold it into an existing knob:\n{}",
        grown.join("\n")
    );
}

/// The `pub` fields of a struct body that starts just after its opening
/// brace (comments stripped; nested braces skipped).
fn pub_fields(body: &str) -> usize {
    let mut depth = 1usize;
    let mut fields = 0;
    for line in body.lines() {
        let code = line.split("//").next().unwrap_or_default().trim();
        if depth == 1 && code.starts_with("pub") {
            fields += 1;
        }
        depth += code.matches('{').count();
        depth = depth.saturating_sub(code.matches('}').count());
        if depth == 0 {
            return fields;
        }
    }
    panic!("struct body never closes");
}
