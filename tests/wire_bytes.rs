//! The wire format, byte for byte: every message type that crosses a
//! process boundary or lands in a memo key or checkpoint, and the std
//! values apps pass, encode exactly as recorded here. A `parsl-worker`
//! of another build, an older checkpoint file and the memo table all
//! depend on these bytes not moving. The manager-edge frames are pinned
//! in `crates/executors/src/proto.rs` and the TCP frames in
//! `crates/nexus/src/tcp.rs`.
//!
//! Every case also decodes back to a value that re-encodes to the same
//! bytes.

use parsl::core::error::AppError;
use parsl::core::fusion::FusedOutput;
use parsl::data::{File, Scheme, StagedFile};
use parsl::executors::proto::{
    Command, CommandReply, ToClient, ToInterchange, ToManager, WireResult, WireTask,
};
use std::collections::BTreeMap;

/// Assert that `$value` (of type `$ty`) encodes to `$bytes`, and that
/// those bytes decode to something that encodes to them again.
macro_rules! pin {
    ($ty:ty: $value:expr => $bytes:expr) => {{
        let value: $ty = $value;
        let bytes: &[u8] = &$bytes;
        let got = wire::to_bytes(&value).unwrap();
        assert_eq!(got, bytes, "{value:?}");
        let back: $ty = wire::from_bytes(bytes).unwrap();
        assert_eq!(wire::to_bytes(&back).unwrap(), bytes, "{value:?}");
    }};
}

#[test]
fn std_values_keep_their_bytes() {
    pin!(u64: u64::MAX => [255, 255, 255, 255, 255, 255, 255, 255, 255, 1]);
    pin!(u8: 0xff => [255, 1]);
    pin!(u16: 300 => [172, 2]);
    pin!(u32: 0 => [0]);
    pin!(usize: 128 => [128, 1]);
    pin!(i64: -129 => [129, 2]);
    pin!(i64: i64::MIN => [255, 255, 255, 255, 255, 255, 255, 255, 255, 1]);
    pin!(i32: -1 => [1]);
    pin!(i8: 63 => [126]);
    pin!(bool: true => [1]);
    pin!(bool: false => [0]);
    pin!(f64: f64::NAN => [0, 0, 0, 0, 0, 0, 248, 127]);
    pin!(f64: -0.0 => [0, 0, 0, 0, 0, 0, 0, 128]);
    pin!(f32: 1.5 => [0, 0, 192, 63]);
    pin!(char: '🦀' => [128, 243, 7]);
    pin!(String: "héllo".into() => [6, 104, 195, 169, 108, 108, 111]);
    pin!(Vec<u8>: vec![0, 0x7f, 0x80, 0xff] => [4, 0, 127, 128, 1, 255, 1]);
    pin!(Vec<String>: vec!["a".into(), String::new()] => [2, 1, 97, 0]);
    pin!(Vec<Vec<u8>>: vec![vec![1, 200], vec![]] => [2, 2, 1, 200, 1, 0]);
    pin!(Option<u32>: Some(7) => [1, 7]);
    pin!(Option<u32>: None => [0]);
    pin!(Box<u64>: Box::new(5) => [5]);
    pin!(Result<u64, String>: Ok(3) => [0, 3]);
    pin!(Result<u64, String>: Err("no".into()) => [1, 2, 110, 111]);
    pin!((): () => []);
    pin!((u64,): (1 << 62,) => [128, 128, 128, 128, 128, 128, 128, 128, 64]);
    pin!((u8, String, f64): (1, "x".into(), 2.5) => [1, 1, 120, 0, 0, 0, 0, 0, 0, 4, 64]);
    pin!(
        BTreeMap<String, i32>: BTreeMap::from([("a".into(), 1), ("b".into(), -2)])
            => [2, 1, 97, 2, 1, 98, 3]
    );
}

#[test]
fn app_errors_and_fused_outputs_keep_their_bytes() {
    pin!(AppError: AppError::Failure("f".into()) => [0, 1, 102]);
    pin!(AppError: AppError::Panic("p".into()) => [1, 1, 112]);
    pin!(
        AppError: AppError::BashExit { code: -129, command: "false".into() }
            => [2, 129, 2, 5, 102, 97, 108, 115, 101]
    );
    pin!(AppError: AppError::BashSpawn("s".into()) => [3, 1, 115]);
    pin!(AppError: AppError::Serialization("x".into()) => [4, 1, 120]);
    pin!(
        FusedOutput: FusedOutput { ok: vec![vec![1], vec![0x80, 2], vec![]], err: None }
            => [3, 1, 1, 2, 128, 1, 2, 0, 0]
    );
    pin!(
        FusedOutput: FusedOutput { ok: vec![], err: Some(AppError::Panic("p".into())) }
            => [0, 1, 1, 1, 112]
    );
}

#[test]
fn data_types_keep_their_bytes() {
    pin!(Scheme: Scheme::Local => [0]);
    pin!(Scheme: Scheme::Http => [1]);
    pin!(Scheme: Scheme::Ftp => [2]);
    pin!(Scheme: Scheme::Globus => [3]);
    pin!(
        File: File { scheme: Scheme::Globus, host: "ep".into(), path: "/d/x".into() }
            => [3, 2, 101, 112, 4, 47, 100, 47, 120]
    );
    pin!(
        StagedFile: StagedFile { local_path: "/tmp/a".into(), bytes: 1 << 40 }
            => [6, 47, 116, 109, 112, 47, 97, 128, 128, 128, 128, 128, 32]
    );
}

fn task() -> WireTask {
    WireTask {
        id: 9,
        attempt: 1,
        app_id: 300,
        tenant: 2,
        items: 1,
        args: vec![0x80, 1],
    }
}

#[test]
fn client_side_messages_keep_their_bytes() {
    pin!(Command: Command::OutstandingInfo => [0]);
    pin!(Command: Command::ConnectedWorkers => [1]);
    pin!(Command: Command::Blacklist("m-3".into()) => [2, 3, 109, 45, 51]);
    pin!(Command: Command::ShutdownExecutor => [3]);
    pin!(CommandReply: CommandReply::Outstanding(5) => [0, 5]);
    pin!(CommandReply: CommandReply::Workers(128) => [1, 128, 1]);
    pin!(CommandReply: CommandReply::Ack => [2]);
    pin!(ToInterchange: ToInterchange::Submit(task()) => [0, 9, 1, 172, 2, 2, 1, 2, 128, 1, 1]);
    pin!(
        ToInterchange: ToInterchange::SubmitBatch(vec![task(), task()])
            => [1, 2, 9, 1, 172, 2, 2, 1, 2, 128, 1, 1, 9, 1, 172, 2, 2, 1, 2, 128, 1, 1]
    );
    pin!(ToInterchange: ToInterchange::Retire { name: "m".into() } => [7, 1, 109]);
    pin!(ToInterchange: ToInterchange::Cancel { id: 300, attempt: 2 } => [8, 172, 2, 2]);
    pin!(ToInterchange: ToInterchange::Command(Command::ConnectedWorkers) => [9, 1]);
    pin!(ToInterchange: ToInterchange::Shutdown => [10]);
    pin!(
        ToClient: ToClient::Results(vec![WireResult {
            id: 4,
            attempt: 0,
            outcome: Err(AppError::BashSpawn("s".into())),
            worker: "w".into(),
        }]) => [0, 1, 4, 0, 1, 3, 1, 115, 1, 119]
    );
    pin!(
        ToClient: ToClient::ManagerLost { name: "m".into(), tasks: vec![(1, 0), (1 << 35, 7)] }
            => [1, 1, 109, 2, 1, 0, 128, 128, 128, 128, 128, 1, 7]
    );
    pin!(ToClient: ToClient::CommandReply(CommandReply::Outstanding(300)) => [2, 0, 172, 2]);
}

/// Decode `bytes` as each type a peer's frame is read as. Every call
/// must return, `Ok` or `Err`; none may panic.
fn decode_as_everything(bytes: &[u8]) {
    let _ = wire::from_bytes::<ToManager>(bytes);
    let _ = wire::from_bytes::<ToInterchange>(bytes);
    let _ = wire::from_bytes::<FusedOutput>(bytes);
    let _ = wire::from_bytes::<AppError>(bytes);
    let _ = wire::from_bytes::<(u64,)>(bytes);
    let _ = wire::from_bytes::<Vec<Vec<u8>>>(bytes);
    let _ = wire::items::check(bytes);
}

/// Valid encodings of the frames a worker and a kernel exchange, built
/// from generated tasks and results.
fn valid_frames(ids: &[u64], args: &[u8]) -> Vec<Vec<u8>> {
    let tasks: Vec<WireTask> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| WireTask {
            id,
            attempt: i as u32,
            app_id: id >> 3,
            tenant: 0,
            items: 1,
            args: args.get(i..).unwrap_or_default().to_vec(),
        })
        .collect();
    let results: Vec<WireResult> = ids
        .iter()
        .map(|&id| WireResult {
            id,
            attempt: 0,
            outcome: match id % 3 {
                0 => Err(AppError::BashExit {
                    code: id as i32,
                    command: "x".into(),
                }),
                _ => Ok(args.to_vec()),
            },
            worker: "w".into(),
        })
        .collect();
    let chunk: Vec<Vec<u8>> = ids
        .iter()
        .map(|id| wire::to_bytes(&(*id,)).unwrap())
        .collect();
    vec![
        wire::to_bytes(&ToManager::Tasks(tasks)).unwrap(),
        wire::to_bytes(&ToInterchange::Results(results)).unwrap(),
        wire::to_bytes(&ToInterchange::Register {
            name: "htex:mgr-0".into(),
            capacity: ids.len(),
            held: ids.iter().map(|&id| (id, 1)).collect(),
        })
        .unwrap(),
        wire::to_bytes(&FusedOutput {
            ok: chunk.clone(),
            err: Some(AppError::Panic("p".into())),
        })
        .unwrap(),
        wire::to_bytes(&chunk).unwrap(),
    ]
}

proptest::proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256)) {
        decode_as_everything(&bytes);
    }

    /// Every strict prefix of a valid frame is an error for its own type
    /// and no panic for any other; so is the frame with one byte changed.
    #[test]
    fn truncated_and_corrupted_frames_never_panic(
        ids in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..6),
        args in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..24),
        at in proptest::prelude::any::<usize>(),
        byte in proptest::prelude::any::<u8>(),
    ) {
        for frame in valid_frames(&ids, &args) {
            for cut in 0..frame.len() {
                decode_as_everything(&frame[..cut]);
            }
            let mut corrupt = frame.clone();
            let at = at % corrupt.len();
            corrupt[at] = byte;
            decode_as_everything(&corrupt);
        }
        let [tasks, results, register, fused, chunk] = valid_frames(&ids, &args).try_into().unwrap();
        for cut in 0..tasks.len() {
            proptest::prop_assert!(wire::from_bytes::<ToManager>(&tasks[..cut]).is_err());
        }
        for frame in [results, register] {
            for cut in 0..frame.len() {
                proptest::prop_assert!(wire::from_bytes::<ToInterchange>(&frame[..cut]).is_err());
            }
        }
        for cut in 0..fused.len() {
            proptest::prop_assert!(wire::from_bytes::<FusedOutput>(&fused[..cut]).is_err());
        }
        for cut in 0..chunk.len() {
            proptest::prop_assert!(wire::from_bytes::<Vec<Vec<u8>>>(&chunk[..cut]).is_err());
            proptest::prop_assert!(wire::items::check(&chunk[..cut]).is_err());
        }
    }
}
