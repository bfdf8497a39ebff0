type t = {
  on_block : int -> unit;
  on_block_exec : int -> int -> unit;
  on_block_span : int -> int -> unit;
  on_block_mems : int -> int -> int array -> int array -> int -> unit;
  on_instr : int -> int -> unit;
  on_read : int -> unit;
  on_write : int -> unit;
  on_branch : int -> bool -> unit;
}

let ignore1 (_ : int) = ()
let ignore2 (_ : int) (_ : int) = ()
let ignore_branch (_ : int) (_ : bool) = ()

let ignore_mems (_ : int) (_ : int) (_ : int array) (_ : int array) (_ : int) =
  ()

let nil =
  {
    on_block = ignore1;
    on_block_exec = ignore2;
    on_block_span = ignore2;
    on_block_mems = ignore_mems;
    on_instr = ignore2;
    on_read = ignore1;
    on_write = ignore1;
    on_branch = ignore_branch;
  }

(* Every constructor funnels no-op callbacks through the shared
   [ignore*] sentinels, so physical equality against them (and [is_nil]
   against the whole record) is a reliable "nothing installed" test —
   the interpreter uses it to skip hook dispatch entirely. *)
let is_nil h =
  h == nil
  || (h.on_block == ignore1 && h.on_block_exec == ignore2
      && h.on_block_span == ignore2
      && h.on_block_mems == ignore_mems && h.on_instr == ignore2
      && h.on_read == ignore1 && h.on_write == ignore1
      && h.on_branch == ignore_branch)

(* A hook set is block-level when every per-instruction callback is the
   sentinel.  [on_block], [on_block_exec], [on_block_span],
   [on_block_mems] and [on_branch] all fire at most once per basic
   block entry, so the interpreter runs such a set on its compiled
   tier: enter the block, fire the aggregates, then execute the
   straight-line body with zero dispatch.

   [on_block_exec bb n] means "n instructions of block [bb] retired".
   It conveys multiplicity only, not position: the compiled tier fires
   it once per block entry (n = straight-line length, or less on a
   mid-block resume), while the reference engine fires it with n = 1
   per retired instruction.  Tools attached to it must therefore be
   insensitive to batching — pure counters like BBV collection, not
   position-dependent watchers.

   [on_block_span pc0 n] is the positional sibling of [on_block_exec]:
   "n consecutive instructions starting at pc0 retired".  Spans
   partition the retirement stream exactly, so a tool can classify
   every retired instruction (kind, memory class) from the static
   program without per-instruction dispatch. *)
let block_level h =
  h.on_instr == ignore2 && h.on_read == ignore1 && h.on_write == ignore1

(* [on_block_mems] is an aggregate like [on_block_exec]: the compiled
   tier delivers one segment per block entry, the reference engine one
   single-instruction segment per retirement.  A live callback keeps
   the set block-level but switches on the compiled tier's per-run
   collection of data references, which is how the cache tool, the
   timing core and ldstmix all run block-level. *)
let has_block_mems h = h.on_block_mems != ignore_mems

let seq a b =
  let pick1 fa fb =
    if fa == ignore1 then fb
    else if fb == ignore1 then fa
    else fun x -> fa x; fb x
  in
  let pick2 fa fb =
    if fa == ignore2 then fb
    else if fb == ignore2 then fa
    else fun x y -> fa x y; fb x y
  in
  {
    on_block = pick1 a.on_block b.on_block;
    on_block_exec = pick2 a.on_block_exec b.on_block_exec;
    on_block_span = pick2 a.on_block_span b.on_block_span;
    on_block_mems =
      (if a.on_block_mems == ignore_mems then b.on_block_mems
       else if b.on_block_mems == ignore_mems then a.on_block_mems
       else
         fun pc n offs addrs nrefs ->
           a.on_block_mems pc n offs addrs nrefs;
           b.on_block_mems pc n offs addrs nrefs);
    on_instr = pick2 a.on_instr b.on_instr;
    on_read = pick1 a.on_read b.on_read;
    on_write = pick1 a.on_write b.on_write;
    on_branch =
      (if a.on_branch == ignore_branch then b.on_branch
       else if b.on_branch == ignore_branch then a.on_branch
       else fun x y -> a.on_branch x y; b.on_branch x y);
  }

(* Fuse a whole chain per field.  Folding [seq] over a list builds a
   tree of pairwise closures — [((a;b);c);d] — whose inner nodes are
   re-entered on every event.  Here each field's live callbacks are
   collected once and dispatched from a flat array, so an n-tool chain
   costs one closure plus n direct calls instead of n-1 nested
   closures. *)
let fuse1 sentinel fs =
  match List.filter (fun f -> f != sentinel) fs with
  | [] -> sentinel
  | [ f ] -> f
  | [ f; g ] -> fun x -> f x; g x
  | [ f; g; h ] -> fun x -> f x; g x; h x
  | fs ->
      let arr = Array.of_list fs in
      let n = Array.length arr in
      fun x ->
        for i = 0 to n - 1 do
          (Array.unsafe_get arr i) x
        done

let fuse2 sentinel fs =
  match List.filter (fun f -> f != sentinel) fs with
  | [] -> sentinel
  | [ f ] -> f
  | [ f; g ] -> fun x y -> f x y; g x y
  | [ f; g; h ] -> fun x y -> f x y; g x y; h x y
  | fs ->
      let arr = Array.of_list fs in
      let n = Array.length arr in
      fun x y ->
        for i = 0 to n - 1 do
          (Array.unsafe_get arr i) x y
        done

let fuse_mems fs =
  match List.filter (fun f -> f != ignore_mems) fs with
  | [] -> ignore_mems
  | [ f ] -> f
  | [ f; g ] ->
      fun pc n offs addrs nrefs ->
        f pc n offs addrs nrefs;
        g pc n offs addrs nrefs
  | fs ->
      let arr = Array.of_list fs in
      let len = Array.length arr in
      fun pc n offs addrs nrefs ->
        for i = 0 to len - 1 do
          (Array.unsafe_get arr i) pc n offs addrs nrefs
        done

let seq_all = function
  | [] -> nil
  | [ h ] -> h
  | hs ->
      {
        on_block = fuse1 ignore1 (List.map (fun h -> h.on_block) hs);
        on_block_exec = fuse2 ignore2 (List.map (fun h -> h.on_block_exec) hs);
        on_block_span = fuse2 ignore2 (List.map (fun h -> h.on_block_span) hs);
        on_block_mems = fuse_mems (List.map (fun h -> h.on_block_mems) hs);
        on_instr = fuse2 ignore2 (List.map (fun h -> h.on_instr) hs);
        on_read = fuse1 ignore1 (List.map (fun h -> h.on_read) hs);
        on_write = fuse1 ignore1 (List.map (fun h -> h.on_write) hs);
        on_branch = fuse2 ignore_branch (List.map (fun h -> h.on_branch) hs);
      }
