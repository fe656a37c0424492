//! A seeded generator of `POST /publish` bodies, shared by the tests that
//! feed them to `wire::decode_publish`: both shapes, duplicate, unknown and
//! escaped keys, stray whitespace, every exponent spelling, the
//! f64-then-f32 double-rounding texts, and now and then broken syntax.

use ctk_core::PublishRequest;

/// Floats compared by bits: `-0.0` and `0.0` are different requests.
pub fn bits(request: &PublishRequest) -> Vec<(Vec<(u32, u32)>, u64)> {
    request
        .docs()
        .iter()
        .map(|(pairs, at)| (pairs.iter().map(|(t, w)| (t.0, w.to_bits())).collect(), at.to_bits()))
        .collect()
}

/// SplitMix64: the generator's whole state is the proptest-sampled seed.
pub struct Dice(pub u64);

impl Dice {
    fn roll(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.roll() % n
    }

    /// True once in `n`.
    fn rarely(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len() as u64) as usize]
    }

    fn space(&mut self) -> &'static str {
        if self.rarely(4) {
            self.pick(&[" ", "\n", "\t", "\r\n ", "  "])
        } else {
            ""
        }
    }
}

fn term_id(dice: &mut Dice) -> String {
    if dice.rarely(25) {
        // Refused by `Value::as_u64` or by the u32 range.
        return dice
            .pick(&["-1", "1.5", "4294967296", "1e10", "\"7\"", "null", "[7]", "-0.5"])
            .to_string();
    }
    let id = dice.below(5000);
    match dice.below(6) {
        0 => format!("{id}.0"),
        1 => format!("{id}e0"),
        2 => format!("{id}E+0"),
        3 if id == 0 => "-0".to_string(),
        _ => id.to_string(),
    }
}

fn number(dice: &mut Dice) -> String {
    if dice.rarely(25) {
        return dice.pick(&["\"0.5\"", "null", "true", "[1]", "{}"]).to_string();
    }
    let mantissa = dice.below(100_000);
    match dice.below(7) {
        0 => mantissa.to_string(),
        1 => format!("{mantissa}e-5"),
        2 => format!("0.{mantissa:05}"),
        3 => format!("{}.{}E-3", mantissa / 7, mantissa % 997),
        4 => format!("-{}.5", mantissa % 10),
        // The widen-then-narrow trap: f64-parse then `as f32` rounds twice.
        5 => dice
            .pick(&[
                "0.15811388194561005",
                "1.0000000596046447753906251",
                "16777217",
                "1e-46",
                "3.4028235677973366e38",
            ])
            .to_string(),
        _ => format!("{}.{:03}", mantissa % 10, mantissa % 1000),
    }
}

fn terms(dice: &mut Dice) -> String {
    if dice.rarely(30) {
        return dice.pick(&["7", "\"x\"", "null", "{\"0\": 1}"]).to_string();
    }
    let mut out = format!("[{}", dice.space());
    for i in 0..dice.below(5) {
        if i > 0 {
            out += &format!(",{}", dice.space());
        }
        if dice.rarely(30) {
            out += dice.pick(&["[1]", "[1, 0.5, 2]", "[]", "7", "{\"t\": 1}"]);
        } else {
            out += &format!("[{}{},{}{}]", dice.space(), term_id(dice), dice.space(), number(dice));
        }
    }
    out + dice.space() + "]"
}

/// Some valid JSON value nobody asked for, sometimes with familiar keys
/// inside so a decoder that looks too deep is caught.
fn extra(dice: &mut Dice) -> String {
    dice.pick(&[
        "1",
        "-2.5e3",
        "\"text \\\" \\\\ \\u00e9 \\ud83d\\ude00\"",
        "null",
        "true",
        "false",
        "[]",
        "{}",
        "[1, [2, [3, {\"terms\": 4}]]]",
        "{\"docs\": [{\"terms\": [[1, 1.0]]}], \"terms\": 7}",
    ])
    .to_string()
}

/// The members of one document object (also the single-document body).
fn doc_members(dice: &mut Dice) -> Vec<(String, String)> {
    let mut members = Vec::new();
    if !dice.rarely(20) {
        members.push(("terms".to_string(), terms(dice)));
    }
    if dice.below(3) > 0 {
        members.push(("arrival".to_string(), number(dice)));
    }
    // Duplicates: the first of each key, in text order, must win.
    if dice.rarely(8) {
        members.push(("terms".to_string(), terms(dice)));
    }
    if dice.rarely(8) {
        members.push(("arrival".to_string(), number(dice)));
    }
    for _ in 0..dice.below(3) {
        members.push((
            dice.pick(&["k", "id", "Terms", "", "arrival ", "t\\u0065rms"]).to_string(),
            extra(dice),
        ));
    }
    members
}

fn object(dice: &mut Dice, mut members: Vec<(String, String)>) -> String {
    // Fisher-Yates: any key order.
    for i in (1..members.len()).rev() {
        members.swap(i, dice.below(i as u64 + 1) as usize);
    }
    let mut out = format!("{}{{{}", dice.space(), dice.space());
    for (i, (key, value)) in members.iter().enumerate() {
        if i > 0 {
            out += &format!(",{}", dice.space());
        }
        out += &format!("\"{key}\"{}:{}{value}{}", dice.space(), dice.space(), dice.space());
    }
    out + "}" + dice.space()
}

/// One body: a single document or a batch, usually well-formed.
pub fn body(dice: &mut Dice) -> String {
    let text = match dice.below(12) {
        0 => {
            return dice
                .pick(&["", "  ", "[]", "7", "null", "\"docs\"", "[{\"terms\": [[1, 1.0]]}]"])
                .to_string()
        }
        1..=4 => {
            let members = doc_members(dice);
            object(dice, members)
        }
        _ => {
            let docs = if dice.rarely(15) {
                dice.pick(&["7", "null", "{}", "\"x\""]).to_string()
            } else {
                let mut docs = format!("[{}", dice.space());
                for i in 0..dice.below(5) {
                    if i > 0 {
                        docs += &format!(",{}", dice.space());
                    }
                    if dice.rarely(30) {
                        docs += dice.pick(&["7", "[]", "null", "\"doc\""]);
                    } else {
                        let members = doc_members(dice);
                        docs += &object(dice, members);
                    }
                }
                docs + "]"
            };
            let mut members = vec![("docs".to_string(), docs)];
            // Top-level members the batch shape must ignore, valid or not.
            if dice.rarely(4) {
                members.extend(doc_members(dice));
            }
            if dice.rarely(10) {
                members.push(("docs".to_string(), "[]".to_string()));
            }
            object(dice, members)
        }
    };
    // Now and then, break the syntax somewhere.
    match dice.below(20) {
        0 if !text.is_empty() => {
            let mut cut = dice.below(text.len() as u64) as usize;
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text[..cut].to_string()
        }
        1 => text + dice.pick(&["x", "}", ",", "{}", "]"]),
        _ => text,
    }
}
