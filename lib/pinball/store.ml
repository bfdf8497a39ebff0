open Sp_util
open Sp_vm

let magic = "SPREPRO-PINBALL"
let version = 2
let header_bytes = String.length magic + 4

(* ------------------------------------------------------------------ *)
(* errors *)

type error =
  | No_such_file of string
  | Short_file of string
  | Bad_magic of string
  | Bad_version of { path : string; found : int }
  | Corrupt of { path : string; reason : string }

let error_message = function
  | No_such_file path -> Printf.sprintf "%s: no such file" path
  | Short_file path ->
      Printf.sprintf "%s: not a pinball (shorter than the %d-byte header)"
        path header_bytes
  | Bad_magic path -> Printf.sprintf "%s: not a pinball (bad magic)" path
  | Bad_version { path; found } ->
      Printf.sprintf "%s: pinball format version %d, expected %d" path found
        version
  | Corrupt { path; reason } ->
      Printf.sprintf "%s: corrupt pinball (%s)" path reason

(* ------------------------------------------------------------------ *)
(* naming *)

let filename (pb : Pinball.t) =
  match pb.kind with
  | Pinball.Whole -> Printf.sprintf "%s.whole.pb" pb.benchmark
  | Pinball.Region r -> Printf.sprintf "%s.region%03d.pb" pb.benchmark r.cluster

(* ------------------------------------------------------------------ *)
(* encoding

   Layout: magic (15 bytes), big-endian u32 version (the same framing
   the v1 [output_binary_int] header used, so a legacy file decodes to a
   clean version error), then four sections in fixed order.  A section
   is a 4-byte ASCII tag, a little-endian u32 payload length, the
   payload, and the payload's CRC-32 — so truncation and bit flips are
   detected per section before any payload is decoded. *)

let encode_meta buf (pb : Pinball.t) =
  Binio.w_string buf pb.benchmark;
  (match pb.kind with
  | Pinball.Whole -> Binio.w_u8 buf 0
  | Pinball.Region { cluster; weight } ->
      Binio.w_u8 buf 1;
      Binio.w_i64 buf cluster;
      Binio.w_f64 buf weight);
  match pb.length with
  | None -> Binio.w_u8 buf 0
  | Some l ->
      Binio.w_u8 buf 1;
      Binio.w_i64 buf l

let encode_syscalls buf (pb : Pinball.t) =
  Binio.w_u32 buf (Array.length pb.syscalls);
  Array.iter
    (fun (icount, v) ->
      Binio.w_i64 buf icount;
      Binio.w_i64 buf v)
    pb.syscalls

let encode (pb : Pinball.t) =
  (* size hints: SNAP dominates (the memory image), PROG is roughly
     proportional to the instruction count.  Pre-sizing the payload and
     output buffers skips the doubling-growth copies, which for a
     multi-MiB image cost as much as an extra full encode pass. *)
  let snap_hint = Snapshot.mem_bytes pb.Pinball.snapshot + 4096 in
  let prog_hint =
    (Array.length pb.Pinball.program.Program.instrs * 16) + 4096
  in
  let buf = Buffer.create (snap_hint + prog_hint + 4096) in
  Buffer.add_string buf magic;
  Buffer.add_int32_be buf (Int32.of_int version);
  (* Sections are written straight into [buf] — no per-section staging
     buffer, so the multi-MiB SNAP payload is copied exactly once, by
     the final [Buffer.to_bytes].  The length and CRC fields are
     emitted as placeholders and patched into the final bytes, where
     the payload is readable; the resulting layout and values are
     byte-identical to staging each payload separately. *)
  let patches = ref [] in
  let section tag write_payload =
    Buffer.add_string buf tag;
    let len_pos = Buffer.length buf in
    Binio.w_u32 buf 0 (* length, patched below *);
    let payload_pos = Buffer.length buf in
    write_payload buf;
    let len = Buffer.length buf - payload_pos in
    Binio.w_u32 buf 0 (* CRC, patched below *);
    patches := (len_pos, payload_pos, len) :: !patches
  in
  section "META" (fun b -> encode_meta b pb);
  section "PROG" (fun b -> Program.write b pb.Pinball.program);
  section "SNAP" (fun b -> Snapshot.write b pb.Pinball.snapshot);
  section "SYSC" (fun b -> encode_syscalls b pb);
  let out = Buffer.to_bytes buf in
  let view = Bytes.unsafe_to_string out in
  List.iter
    (fun (len_pos, payload_pos, len) ->
      Bytes.set_int32_le out len_pos (Int32.of_int len);
      Bytes.set_int32_le out (payload_pos + len)
        (Int32.of_int (Crc32.sub view ~pos:payload_pos ~len)))
    !patches;
  view

(* ------------------------------------------------------------------ *)
(* decoding *)

(* Validate a section's framing and checksum, returning a reader
   confined to its payload. *)
let section data r tag =
  let t = Binio.r_bytes r 4 in
  if t <> tag then Binio.fail "expected section %s, found %S" tag t;
  let len = Binio.r_u32 r in
  if len + 4 > Binio.remaining r then
    Binio.fail "section %s: length %d overruns the file" tag len;
  let pos = Binio.pos r in
  Binio.skip r len;
  let stored = Binio.r_u32 r in
  let actual = Crc32.sub data ~pos ~len in
  if stored <> actual then Binio.fail "section %s: checksum mismatch" tag;
  Binio.reader ~pos ~len data

let decode_body data : Pinball.t =
  let r = Binio.reader ~pos:header_bytes data in
  let meta = section data r "META" in
  let benchmark = Binio.r_string meta in
  let kind =
    match Binio.r_u8 meta with
    | 0 -> Pinball.Whole
    | 1 ->
        let cluster = Binio.r_i64 meta in
        let weight = Binio.r_f64 meta in
        Pinball.Region { cluster; weight }
    | n -> Binio.fail "META: bad pinball kind %d" n
  in
  let length =
    match Binio.r_u8 meta with
    | 0 -> None
    | 1 ->
        let l = Binio.r_i64 meta in
        if l < 0 then Binio.fail "META: negative length %d" l;
        Some l
    | n -> Binio.fail "META: bad length tag %d" n
  in
  Binio.expect_end meta "META";
  let progr = section data r "PROG" in
  let program = Program.read progr in
  Binio.expect_end progr "PROG";
  let snapr = section data r "SNAP" in
  let snapshot =
    Snapshot.read ~code_len:(Array.length program.Program.instrs) snapr
  in
  Binio.expect_end snapr "SNAP";
  let sysr = section data r "SYSC" in
  let n = Binio.r_count sysr ~elem_bytes:16 "syscall log" in
  let syscalls =
    Array.init n (fun _ ->
        let icount = Binio.r_i64 sysr in
        let v = Binio.r_i64 sysr in
        (icount, v))
  in
  Binio.expect_end sysr "SYSC";
  Binio.expect_end r "file";
  { Pinball.benchmark; kind; program; snapshot; length; syscalls }

let of_bytes ?(path = "<bytes>") data =
  if String.length data < header_bytes then Error (Short_file path)
  else if String.sub data 0 (String.length magic) <> magic then
    Error (Bad_magic path)
  else
    let found =
      Int32.to_int (String.get_int32_be data (String.length magic))
    in
    if found <> version then Error (Bad_version { path; found })
    else
      match decode_body data with
      | pb -> Ok pb
      | exception Binio.Corrupt reason -> Error (Corrupt { path; reason })
      | exception Invalid_argument reason -> Error (Corrupt { path; reason })
      | exception Failure reason -> Error (Corrupt { path; reason })

let load path =
  if not (Sys.file_exists path) then Error (No_such_file path)
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | data -> of_bytes ~path data
    | exception Sys_error reason -> Error (Corrupt { path; reason })

let load_exn path =
  match load path with Ok pb -> pb | Error e -> failwith (error_message e)

let verify path = Result.map ignore (load path)

(* ------------------------------------------------------------------ *)
(* writing *)

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" then ()
  else if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then
      failwith (Printf.sprintf "Store: %s exists and is not a directory" dir)
  end
  else begin
    mkdir_p (Filename.dirname dir);
    (* another domain or process may create it between the check and the
       mkdir; treat that as success instead of racing to EEXIST *)
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir && Sys.is_directory dir -> ()
  end

let save_path ~path pb =
  mkdir_p (Filename.dirname path);
  let data = encode pb in
  (* unique per (process, domain): concurrent pool savers never share a
     temp file, and the final rename is atomic, so readers only ever see
     complete files *)
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Domain.self () :> int)
  in
  let oc = open_out_bin tmp in
  (try
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () -> output_string oc data)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  path

let save ~dir pb = save_path ~path:(Filename.concat dir (filename pb)) pb

let list_dir ~dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".pb")
    |> List.map (Filename.concat dir)
    |> List.sort compare
