//! Round trip of the shared JSON writer and reader: every value the
//! writer renders parses back equal (member by member, number text by
//! number text, layout by layout), and every golden report document
//! parses and renders back byte for byte.

use marauder_obs::json::{self, Json, Layout};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::path::Path;

/// Characters that stress the escaper: quotes, backslashes, every
/// control character and non-ASCII text.
fn tricky_chars() -> Vec<char> {
    let mut chars: Vec<char> = (0u32..0x20).filter_map(char::from_u32).collect();
    chars.extend([
        '"', '\\', '/', 'a', 'Z', '0', ' ', ':', ',', '{', ']', '\u{7f}', 'é', 'ß', '€', '中',
        '\u{2028}', '😀',
    ]);
    chars
}

fn any_string() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(tricky_chars()), 0..12)
        .prop_map(|chars| chars.into_iter().collect())
}

/// Any value, with containers nested at most `depth` deep.
struct AnyJson {
    depth: u32,
}

impl Strategy for AnyJson {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        let kinds = if self.depth == 0 { 7 } else { 9 };
        match (0u32..kinds).generate(rng) {
            0 => Json::Null,
            1 => Json::Bool(any::<bool>().generate(rng)),
            2 => prop::sample::select(vec![0, 1, u64::MAX - 1, u64::MAX])
                .generate(rng)
                .into(),
            3 => match (0u32..2).generate(rng) {
                0 => any::<u64>().generate(rng).into(),
                _ => any::<i64>().generate(rng).into(),
            },
            4 => any::<u64>()
                .prop_map(f64::from_bits)
                .prop_filter("finite", |x| x.is_finite())
                .generate(rng)
                .into(),
            5 => {
                let (x, decimals) = (any::<f64>(), 0usize..7).generate(rng);
                Json::Num(format!("{x:.decimals$}"))
            }
            6 => Json::Str(any_string().generate(rng)),
            kind => {
                let layout =
                    prop::sample::select(vec![Layout::Block, Layout::Inline]).generate(rng);
                let inner = AnyJson {
                    depth: self.depth - 1,
                };
                let len = (0usize..5).generate(rng);
                if kind == 7 {
                    Json::Arr(layout, (0..len).map(|_| inner.generate(rng)).collect())
                } else {
                    let members = (0..len)
                        .map(|_| (any_string().generate(rng), inner.generate(rng)))
                        .collect();
                    Json::Obj(layout, members)
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_written_value_parses_back_equal(value in AnyJson { depth: 4 }) {
        let text = value.render();
        let parsed = json::parse(&text);
        prop_assert_eq!(parsed, Ok(value), "text:\n{}", text);
    }
}

#[test]
fn golden_documents_parse_and_render_back_byte_for_byte() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut documents = 0;
    for entry in std::fs::read_dir(&dir).expect("golden directory") {
        let path = entry.expect("directory entry").path();
        let text = std::fs::read_to_string(&path).expect("golden document");
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(doc.render(), text, "{}", path.display());
        documents += 1;
    }
    assert_eq!(documents, 7, "one golden document per pinned render");
}
