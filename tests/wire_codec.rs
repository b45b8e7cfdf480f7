//! Differential battery of the reply codec (DESIGN.md §9): the streaming
//! encoder and the single-pass scanner against the `Value`-tree encoder
//! and decoder they replaced, which survive as the test-only oracle in
//! `crates/serve/src/protocol/oracle.rs`.
//!
//! The contract under test: the bytes on the wire equal the oracle's, and
//! `decode_reply`, `decode_reply_with_epoch`, `decode_epoch` and
//! `classify_reply` accept and reject exactly the lines the oracle's
//! decoder does — the same `Ok` value, or an `Err` of the same kind —
//! however mangled the line.

// The oracle resolves these through `super::`.
use phast::serve::protocol::{
    classify_reply, decode_epoch, decode_reply, decode_reply_with_epoch, encode_answer,
    encode_answer_into, encode_error, encode_report, ErrorKind, Reply, ReplyClass, ServeError,
};
use phast_core::HeteroAnswer;
use phast_graph::INF;

#[path = "../crates/serve/src/protocol/oracle.rs"]
mod oracle;

use oracle::{assert_decoders_agree, assert_encoders_agree};

const IDS: [Option<i64>; 5] = [None, Some(0), Some(-1), Some(i64::MIN), Some(i64::MAX)];
const EPOCHS: [Option<u64>; 4] = [None, Some(0), Some(1), Some(i64::MAX as u64)];

fn answers() -> Vec<HeteroAnswer> {
    let edge = vec![
        0,
        1,
        9,
        10,
        99,
        100,
        65_535,
        999_999_999,
        INF - 1,
        INF,
        INF + 1,
        u32::MAX,
    ];
    vec![
        HeteroAnswer::Tree(vec![]),
        HeteroAnswer::Tree(vec![0]),
        HeteroAnswer::Tree(edge.clone()),
        HeteroAnswer::Many(vec![]),
        HeteroAnswer::Many(edge.clone()),
        HeteroAnswer::Matrix(vec![]),
        HeteroAnswer::Matrix(vec![vec![]]),
        HeteroAnswer::Matrix(vec![vec![], vec![]]),
        HeteroAnswer::Matrix(vec![vec![3, 4], vec![5, 6]]),
        HeteroAnswer::Matrix(vec![edge, vec![], vec![7]]),
        HeteroAnswer::Point(0),
        HeteroAnswer::Point(INF - 1),
        HeteroAnswer::Point(INF),
        HeteroAnswer::Point(u32::MAX),
    ]
}

/// Every line the shipped encoders can produce for the shapes above, plus
/// error and stats replies.
fn encoded_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for answer in answers() {
        for id in IDS {
            for epoch in EPOCHS {
                lines.push(assert_encoders_agree(id, &answer, epoch));
            }
        }
    }
    for kind in [
        ErrorKind::Overloaded,
        ErrorKind::Internal,
        ErrorKind::Malformed,
    ] {
        lines.push(encode_error(Some(4), &ServeError::new(kind, "plain")));
        lines.push(encode_error(
            None,
            &ServeError::new(kind, "q\"uote \\ tab\t é 日本 \u{1}"),
        ));
    }
    lines.push(encode_error(
        Some(5),
        &ServeError::overloaded(40, "queue deep"),
    ));
    let mut report = phast::obs::Report::new("svc \"quoted\"");
    report.push_count("batches", 3).push_ratio("occupancy", 2.5);
    lines.push(encode_report(Some(9), &report));
    lines.push(encode_report(None, &phast::obs::Report::new("")));
    lines
}

#[test]
fn encoder_is_byte_identical_and_roundtrips() {
    for answer in answers() {
        for id in IDS {
            for epoch in EPOCHS {
                let line = assert_encoders_agree(id, &answer, epoch);
                let (reply, got_epoch) = decode_reply_with_epoch(&line).expect("own output");
                // An unreachable `p2p` target is `null` on the wire.
                let back = match answer {
                    HeteroAnswer::Point(d) => HeteroAnswer::Point(d.min(INF)),
                    ref other => other.clone(),
                };
                assert_eq!(reply, Reply::Answer(back), "{line}");
                assert_eq!(got_epoch, epoch, "{line}");
                assert_eq!(
                    classify_reply(line.as_bytes()),
                    Ok(ReplyClass::Ok),
                    "{line}"
                );
            }
        }
    }
}

#[test]
fn a_large_tree_is_byte_identical_and_roundtrips() {
    // Distances of every digit count, long enough to outgrow any buffer
    // the codec reserves up front.
    let dist: Vec<u32> = (0..200_000u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 33 + 31)) as u32)
        .collect();
    let answer = HeteroAnswer::Tree(dist);
    let line = assert_encoders_agree(Some(1), &answer, Some(2));
    assert_decoders_agree(&line);
    assert_eq!(decode_reply(&line).unwrap(), Reply::Answer(answer));
    // A reused buffer holds exactly the next line, not the last one's tail.
    let mut buf = String::new();
    encode_answer_into(&mut buf, Some(1), &HeteroAnswer::Point(1), None);
    let small = buf.clone();
    buf.clear();
    encode_answer_into(&mut buf, None, &HeteroAnswer::Tree(vec![8; 1000]), None);
    buf.clear();
    encode_answer_into(&mut buf, Some(1), &HeteroAnswer::Point(1), None);
    assert_eq!(buf, small);
}

#[test]
fn every_truncation_point_agrees() {
    for line in encoded_lines() {
        for cut in 0..=line.len() {
            if line.is_char_boundary(cut) {
                assert_decoders_agree(&line[..cut]);
            }
        }
    }
}

#[test]
fn single_byte_flips_agree() {
    // One line per reply shape; every position takes every byte value.
    let lines = [
        encode_answer(Some(-7), &HeteroAnswer::Tree(vec![0, 12, INF]), Some(3)),
        encode_answer(None, &HeteroAnswer::Matrix(vec![vec![1, 2], vec![]]), None),
        encode_answer(Some(1), &HeteroAnswer::Point(INF), Some(0)),
        encode_error(Some(5), &ServeError::overloaded(40, "q\\\"\u{e9}")),
        r#"{"ok":true,"op":"stats","report":{"title":"é😀","m":[1.5e0,null]}}"#.to_owned(),
    ];
    for line in lines {
        for at in 0..line.len() {
            for byte in 0..=255u8 {
                let mut bytes = line.clone().into_bytes();
                bytes[at] = byte;
                match std::str::from_utf8(&bytes) {
                    Ok(flipped) => assert_decoders_agree(flipped),
                    // The old path never saw such a line: reading it into
                    // a `String` already failed the hop.
                    Err(_) => assert!(
                        classify_reply(&bytes).is_err(),
                        "invalid UTF-8 accepted: {bytes:?}"
                    ),
                }
            }
        }
    }
}

#[test]
fn inserted_whitespace_agrees() {
    let lines = [
        encode_answer(Some(2), &HeteroAnswer::Tree(vec![0, 12]), Some(3)),
        encode_answer(Some(2), &HeteroAnswer::Matrix(vec![vec![1], vec![]]), None),
        encode_error(None, &ServeError::overloaded(7, "a b")),
    ];
    for line in lines {
        for at in 0..=line.len() {
            for ws in [" ", "\t", "\r", "\n", " \t\r\n ", "\u{b}", "\u{a0}"] {
                let mut spaced = line.clone();
                spaced.insert_str(at, ws);
                assert_decoders_agree(&spaced);
            }
        }
    }
}

#[test]
fn key_order_duplicates_and_field_types_agree() {
    let oks = [
        r#""ok":true"#,
        r#""ok":false"#,
        r#""ok":1"#,
        r#""ok":"true""#,
        r#""ok":null"#,
    ];
    let ops = [
        r#""op":"tree""#,
        r#""op":"many""#,
        r#""op":"matrix""#,
        r#""op":"p2p""#,
        r#""op":"stats""#,
        r#""op":"warp""#,
        r#""op":7"#,
    ];
    let dists = [
        r#""dist":[]"#,
        r#""dist":[1,2]"#,
        r#""dist":[[1],[2,3]]"#,
        r#""dist":[[]]"#,
        r#""dist":[[1],2]"#,
        r#""dist":[1,[2]]"#,
        r#""dist":[[1],[2,"x"]]"#,
        r#""dist":[[[1]]]"#,
        r#""dist":5"#,
        r#""dist":null"#,
        r#""dist":"5""#,
        r#""dist":{"0":1}"#,
        r#""dist":[1,null]"#,
        r#""dist":[true]"#,
    ];
    for ok in oks {
        for op in ops {
            for dist in dists {
                for line in [
                    format!("{{{ok},{op},{dist}}}"),
                    format!("{{{dist},{op},{ok}}}"),
                    format!("{{{op},{dist},{ok},\"epoch\":4}}"),
                    format!("{{{ok},{op}}}"),
                    format!("{{{op},{dist}}}"),
                ] {
                    assert_decoders_agree(&line);
                }
            }
        }
    }
    // The first occurrence of a key wins, even one of the wrong type.
    for line in [
        r#"{"ok":true,"ok":false,"op":"p2p","dist":1}"#,
        r#"{"ok":0,"ok":true,"op":"p2p","dist":1}"#,
        r#"{"ok":true,"op":"p2p","op":"tree","dist":1,"dist":[1]}"#,
        r#"{"ok":true,"op":"tree","dist":"x","dist":[1]}"#,
        r#"{"ok":true,"op":"tree","dist":[1],"dist":"x"}"#,
        r#"{"ok":true,"op":"tree","dist":[1],"epoch":1,"epoch":2}"#,
        r#"{"ok":true,"op":"tree","dist":[1],"epoch":"1","epoch":2}"#,
        r#"{"ok":false,"error":"busy","error":"internal","message":1,"message":"m"}"#,
        r#"{"ok":false,"error":7,"error":"busy","retry_after_ms":-1,"retry_after_ms":5}"#,
        r#"{"ok":true,"op":"stats","report":1,"report":{"a":2}}"#,
        r#"{"ok":true,"op":"stats"}"#,
        r#"{"ok":true,"op":"stats","report":null,"dist":[1,"x"]}"#,
    ] {
        assert_decoders_agree(line);
    }
}

#[test]
fn number_spellings_agree() {
    let numbers = [
        "0",
        "-0",
        "7",
        "007",
        "1.0",
        "1.",
        "1.5",
        "1e3",
        "1E3",
        "1e+3",
        "1e-3",
        "1000e-3",
        "1e",
        "1e+",
        "-",
        "-1",
        "-1.0",
        ".5",
        "-.5",
        "1.e1",
        "4294967295",
        "4294967296",
        "4294967295.0",
        "42949672950e-1",
        "2147483647",
        "9223372036854775807",
        "9223372036854775808",
        "-9223372036854775808",
        "-9223372036854775809",
        "18446744073709551615",
        "18446744073709551616",
        "8999999999999999999",
        "9000000000000000000",
        "9e18",
        "8.9e18",
        "1e19",
        "1e400",
        "-1e400",
        "0.0000001e7",
        "00000000000000000000005",
        "123456789012345678",
        "1234567890123456789",
        "12345678901234567890",
        "+1",
        "0x10",
        "1_000",
        "Infinity",
        "NaN",
        "1 2",
    ];
    for n in numbers {
        for line in [
            format!(r#"{{"ok":true,"op":"tree","dist":[{n}]}}"#),
            format!(r#"{{"ok":true,"op":"many","dist":[3,{n},4]}}"#),
            format!(r#"{{"ok":true,"op":"matrix","dist":[[{n}]]}}"#),
            format!(r#"{{"ok":true,"op":"p2p","dist":{n}}}"#),
            format!(r#"{{"ok":true,"op":"p2p","dist":1,"epoch":{n}}}"#),
            format!(r#"{{"ok":false,"error":"overloaded","retry_after_ms":{n}}}"#),
            format!(r#"{{"id":{n},"ok":true,"op":"p2p","dist":1}}"#),
        ] {
            assert_decoders_agree(&line);
        }
    }
    // Integral floats are distances today; keep reading them.
    assert_eq!(
        decode_reply(r#"{"ok":true,"op":"tree","dist":[1.0,1e3,07]}"#).unwrap(),
        Reply::Answer(HeteroAnswer::Tree(vec![1, 1000, 7]))
    );
    assert_eq!(decode_epoch(r#"{"epoch":2e0}"#), Some(2));
}

#[test]
fn strings_and_escapes_agree() {
    let strings = [
        r#""""#,
        r#""plain""#,
        r#""\"\\\/\b\f\n\r\t""#,
        r#""\u00e9""#,
        r#""é日本😀""#,
        r#""\ud83d\ude00""#,
        r#""\ud83d""#,
        r#""\ud83dx""#,
        r#""\ud83d\n""#,
        r#""\ud83dA""#,
        r#""\ud83d\udbff""#,
        r#""\ud800\u0000""#,
        r#""\udbff\uffff""#,
        r#""\ud800\udbff""#,
        r#""\ude00""#,
        r#""\u12""#,
        r#""\u12g4""#,
        r#""\x""#,
        r#""\""#,
        r#""unterminated"#,
        "\"tab\there\"",
        "\"nul\u{0}\"",
        "\"del\u{7f}\"",
    ];
    for s in strings {
        for line in [
            format!(r#"{{"ok":false,"error":{s},"message":{s}}}"#),
            format!(r#"{{"ok":false,"message":{s},"error":"busy"}}"#),
            format!(r#"{{"ok":true,"op":{s},"dist":[1]}}"#),
            format!(r#"{{{s}:true,"ok":true,"op":"p2p"}}"#),
            format!(r#"{{"ok":true,"op":"stats","report":[{s},{{{s}:{s}}}]}}"#),
        ] {
            assert_decoders_agree(&line);
        }
    }
}

#[test]
fn nesting_bombs_and_trailing_garbage_agree() {
    let nest = |depth: usize, open: &str, close: &str| {
        format!("{}{}", open.repeat(depth), close.repeat(depth))
    };
    for depth in [1, 2, 126, 127, 128, 129, 130, 5000] {
        let arrays = nest(depth, "[", "]");
        let objects = format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        for bomb in [&arrays, &objects] {
            for line in [
                bomb.clone(),
                format!(r#"{{"ok":true,"op":"stats","report":{bomb}}}"#),
                format!(r#"{{"ok":true,"op":"tree","dist":{bomb}}}"#),
                format!(r#"{{"ok":true,"op":"p2p","dist":1,"x":{bomb}}}"#),
                format!(r#"{{"ok":false,"message":{bomb}}}"#),
            ] {
                assert_decoders_agree(&line);
            }
        }
        // Unclosed: the scanner must stop at the limit, not at the stack's.
        assert_decoders_agree(&"[".repeat(depth));
        assert_decoders_agree(&"{\"a\":".repeat(depth));
    }
    let good = encode_answer(Some(1), &HeteroAnswer::Tree(vec![1, 2]), Some(1));
    for tail in [
        "x", "}", ",", "{}", "\n", " \r\n\t", "\n{}", "\0", "null", &good,
    ] {
        assert_decoders_agree(&format!("{good}{tail}"));
    }
    for whole in [
        "",
        " ",
        "null",
        "true",
        "7",
        "\"ok\"",
        "[]",
        "{}",
        "[{\"ok\":true}]",
        "{\"ok\":true}",
    ] {
        assert_decoders_agree(whole);
    }
}

#[test]
fn classify_reply_validates_the_whole_line() {
    // A fault in the last distance of a long line is still a fault: the
    // router relays a line only when `classify_reply` passes all of it.
    // (A byte turned into another base64 digit is another tree, as a
    // digit turned into another digit was: the line has no checksum.)
    let line = encode_answer(Some(1), &HeteroAnswer::Tree(vec![123_456; 90_000]), Some(9));
    assert_eq!(classify_reply(line.as_bytes()), Ok(ReplyClass::Ok));
    let tail = line.len() - 20;
    for (at, byte) in [
        (tail, b'!'),
        (tail, b'-'),
        (line.len() - 1, b']'),
        (tail, 0xFF),
    ] {
        let mut bytes = line.clone().into_bytes();
        bytes[at] = byte;
        let err = classify_reply(&bytes).expect_err("corrupt tail accepted");
        assert_eq!(err.kind, ErrorKind::Malformed);
    }
    assert!(classify_reply(&line.as_bytes()[..tail]).is_err());
    // Typed errors come back whole, hint included.
    let shed = ServeError::overloaded(40, "queue deep");
    assert_eq!(
        classify_reply(encode_error(Some(5), &shed).as_bytes()),
        Ok(ReplyClass::Error(shed))
    );
}

/// `n` labels of every size, `INF` and `u32::MAX` among them.
fn labels(n: usize) -> Vec<u32> {
    (0..n as u32)
        .map(|i| match i % 5 {
            1 => INF,
            3 => u32::MAX,
            _ => i.wrapping_mul(0x9E37_79B9) >> (i % 29),
        })
        .collect()
}

#[test]
fn packed_trees_roundtrip_in_every_padding_class() {
    for n in 0..=64 {
        let dist = labels(n);
        let answer = HeteroAnswer::Tree(dist.clone());
        let line = assert_encoders_agree(Some(n as i64), &answer, Some(4));
        // ⌈4n / 3⌉ groups of four digits, the last padded to fill.
        let packed = line
            .split("\"dist\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .expect("a packed dist");
        assert_eq!(packed.len(), (4 * n).div_ceil(3) * 4, "{line}");
        assert_eq!(packed.len() - packed.trim_end_matches('=').len(), [0, 2, 1][n % 3], "{line}");
        let tree = Reply::Answer(HeteroAnswer::Tree(dist));
        assert_eq!(decode_reply_with_epoch(&line).unwrap(), (tree.clone(), Some(4)));
        assert_eq!(decode_reply(&line).unwrap(), tree);
        assert_eq!(decode_epoch(&line), Some(4));
        assert_eq!(classify_reply(line.as_bytes()), Ok(ReplyClass::Ok));
        assert_decoders_agree(&line);
    }
    // The module doc's example: the words 0, 10 and 30.
    assert_eq!(
        encode_answer(Some(1), &HeteroAnswer::Tree(vec![0, 10, 30]), None),
        r#"{"id":1,"ok":true,"op":"tree","dist":"AAAAAAoAAAAeAAAA"}"#
    );
    // INF is the word `ff ff ff 7f`.
    assert_eq!(
        encode_answer(None, &HeteroAnswer::Tree(vec![INF, u32::MAX]), None),
        r#"{"id":null,"ok":true,"op":"tree","dist":"////f/////8="}"#
    );
}

#[test]
fn packed_trees_of_every_padding_class_survive_truncation_and_flips() {
    for n in [1, 2, 3, 4] {
        let line = encode_answer(Some(3), &HeteroAnswer::Tree(labels(n)), Some(1));
        for cut in 0..=line.len() {
            assert_decoders_agree(&line[..cut]);
        }
        for at in 0..line.len() {
            for byte in 0..=127u8 {
                let mut bytes = line.clone().into_bytes();
                bytes[at] = byte;
                assert_decoders_agree(std::str::from_utf8(&bytes).expect("ASCII"));
            }
        }
    }
}

#[test]
fn malformed_packed_labels_are_typed_errors() {
    let lines = [
        // Bits beyond the last byte set: 1 word (4 spare bits), 2 words (2).
        "AAAAAB==",
        "AAAAAAAAAAB=",
        // `=` mid-string, and more padding than a group takes.
        "AA=AAAAA",
        "AAAAAAAA=AAAAAA=",
        "AAAAAAAAAA==AAAA",
        "AAAA====",
        "====",
        // Lengths that are not a multiple of 4.
        "A",
        "AAAAAAA",
        "AAAAAAAAAAA",
        "AAAAAA=",
        // Partial words: 3, 2, 6 and 9 bytes.
        "AAAA",
        "AAA=",
        "AAAAAAAA",
        "AAAAAAAAAAAA",
        // The URL-safe alphabet.
        "AA-AAA==",
        "AA_AAA==",
        // An escape, even one that spells a digit.
        r"AA\u0041AAA==",
        r"AAAAAAAAA\/A=",
        r"AAAAAA\u003d=",
        // Blanks, and a non-ASCII character.
        "AAAA AA==",
        "AAAAAA== ",
        "AAAAAé==",
    ];
    for packed in lines {
        let line = format!(r#"{{"ok":true,"op":"tree","dist":"{packed}","epoch":2}}"#);
        for err in [
            decode_reply(&line).unwrap_err(),
            decode_reply_with_epoch(&line).unwrap_err(),
            classify_reply(line.as_bytes()).unwrap_err(),
        ] {
            assert_eq!(err.kind, ErrorKind::Malformed, "{line}");
        }
        // The line is still JSON: the epoch reads, as on any bad payload.
        assert_eq!(decode_epoch(&line), Some(2), "{line}");
        assert_decoders_agree(&line);
    }
    // Only a tree packs its labels.
    let one = encode_answer(None, &HeteroAnswer::Tree(vec![7]), None);
    for op in ["many", "matrix", "p2p"] {
        let line = one.replace("\"tree\"", &format!("\"{op}\""));
        assert_eq!(decode_reply(&line).unwrap_err().kind, ErrorKind::Malformed, "{line}");
        assert_decoders_agree(&line);
    }
}

#[test]
fn a_decimal_tree_from_an_older_server_still_decodes() {
    let line = r#"{"id":1,"ok":true,"op":"tree","dist":[0,10,2147483647,4294967295],"epoch":3}"#;
    let tree = Reply::Answer(HeteroAnswer::Tree(vec![0, 10, INF, u32::MAX]));
    assert_eq!(decode_reply_with_epoch(line).unwrap(), (tree.clone(), Some(3)));
    assert_eq!(decode_reply(line).unwrap(), tree);
    assert_eq!(decode_epoch(line), Some(3));
    assert_eq!(classify_reply(line.as_bytes()), Ok(ReplyClass::Ok));
    assert_decoders_agree(line);
}

#[test]
fn many_matrix_and_p2p_lines_keep_their_bytes() {
    let edge = vec![0, 9, INF, u32::MAX];
    for (answer, line) in [
        (
            HeteroAnswer::Many(edge.clone()),
            r#"{"id":2,"ok":true,"op":"many","dist":[0,9,2147483647,4294967295],"epoch":5}"#,
        ),
        (
            HeteroAnswer::Matrix(vec![edge, vec![], vec![7]]),
            concat!(
                r#"{"id":2,"ok":true,"op":"matrix","#,
                r#""dist":[[0,9,2147483647,4294967295],[],[7]],"epoch":5}"#
            ),
        ),
        (
            HeteroAnswer::Point(12),
            r#"{"id":2,"ok":true,"op":"p2p","dist":12,"epoch":5}"#,
        ),
        (
            HeteroAnswer::Point(INF),
            r#"{"id":2,"ok":true,"op":"p2p","dist":null,"epoch":5}"#,
        ),
    ] {
        assert_eq!(encode_answer(Some(2), &answer, Some(5)), line);
    }
}
