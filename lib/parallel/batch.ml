open Costar_grammar
open Costar_core

type domain_stats = {
  ds_files : int;
  ds_bytes : int;
  ds_new_states : int;
  ds_cache : Instr.cache_counters;
}

type stats = {
  st_domains : int;
  st_rounds : int;
  st_files : int;
  st_bytes : int;
  st_states_before : int;
  st_states_after : int;
  st_forked : int;
  st_per_domain : domain_stats array;
}

let run_batch ?domains ?round_size p ~tokenize inputs =
  let n = Array.length inputs in
  let domains =
    match domains with
    | Some d -> max 1 d
    | None -> max 1 (Domain.recommended_domain_count ())
  in
  let round_size =
    match round_size with
    | Some r -> max 1 r
    | None -> max 1 n
  in
  (* Publish everything the workers will read BEFORE the first spawn: the
     parser's base cache is built lazily behind a mutable field, and the
     tokenizer compiles its scanner behind a lazy — both must be forced on
     this domain so workers only ever read them. *)
  ignore (Parser.base_cache p);
  (try ignore (tokenize "") with _ -> ());
  let states_before = Cache.num_states (Parser.base_cache p) in
  let results = Array.make n (Error "costar batch: file not reached") in
  let per_files = Array.make domains 0 in
  let per_bytes = Array.make domains 0 in
  let per_new = Array.make domains 0 in
  let per_cache = Array.make domains [] in
  let rounds = ref 0 in
  let lo = ref 0 in
  while !lo < n do
    incr rounds;
    let hi = min n (!lo + round_size) in
    (* Work queue: an atomic cursor over [!lo, hi).  Workers pull the next
       unclaimed index, so large files load-balance instead of pinning one
       unlucky domain. *)
    let next = Atomic.make !lo in
    let fz = Cache.freeze (Parser.base_cache p) in
    let worker () =
      let cache = Cache.overlay fz in
      let files = ref 0 in
      let bytes = ref 0 in
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < hi then begin
          let input = inputs.(i) in
          results.(i) <-
            (match tokenize input with
            | Error msg -> Error msg
            | Ok word -> Ok (Parser.run_word ~cache p word));
          incr files;
          bytes := !bytes + String.length input;
          loop ()
        end
      in
      loop ();
      (cache, !files, !bytes, Instr.cache_totals ())
    in
    let ds = Array.init domains (fun _ -> Domain.spawn worker) in
    (* Join every domain before surfacing a failure: no worker may still be
       touching shared state when the exception propagates. *)
    let joined = Array.map (fun d -> try Ok (Domain.join d) with e -> Error e) ds in
    Array.iter
      (function
        | Error e -> raise e
        | Ok _ -> ())
      joined;
    Array.iteri
      (fun d r ->
        match r with
        | Ok (cache, files, bytes, counters) ->
          per_files.(d) <- per_files.(d) + files;
          per_bytes.(d) <- per_bytes.(d) + bytes;
          per_new.(d) <- per_new.(d) + Cache.overlay_new_states cache;
          per_cache.(d) <- counters :: per_cache.(d);
          Cache.absorb (Parser.base_cache p) cache
        | Error _ -> ())
      joined;
    lo := hi
  done;
  let per_domain =
    Array.init domains (fun d ->
        {
          ds_files = per_files.(d);
          ds_bytes = per_bytes.(d);
          ds_new_states = per_new.(d);
          ds_cache = Instr.sum_cache_counters per_cache.(d);
        })
  in
  ( results,
    {
      st_domains = domains;
      st_rounds = !rounds;
      st_files = n;
      st_bytes = Array.fold_left (fun a b -> a + b) 0 per_bytes;
      st_states_before = states_before;
      st_states_after = Cache.num_states (Parser.base_cache p);
      st_forked = 0;
      st_per_domain = per_domain;
    } )

(* {2 The prefork tier}

   Forked worker processes instead of domains: each worker is a full
   process with its own runtime and its own minor heap, so parsing never
   crosses a stop-the-world minor collection shared with other workers —
   the GC decoupling that domains on OCaml 5 cannot give (E15/E16).  The
   parser, scanner tables and base cache are inherited copy-on-write; when
   the base cache is an mmapped v3 image ({!Costar_core.Cache.load_image}),
   the transition matrix is shared physically, read-only, by every worker.

   Pools: a parser's workers are forked by its first call and kept warm
   for its later calls with the same worker count and tokenizer
   ([find_pool]).  A pool ends when its parser is collected, at
   [shutdown], or at exit.

   Work distribution: one request pipe per worker.  A call opens with a
   start message to every worker; the parent then hands each idle worker
   the next file, its index and its text, and once every file is out, an
   end message, which the worker answers with its accounting for the
   call.  A worker has at most one file in flight, and the parent writes
   only to a worker that has answered everything it was sent, so the
   worker is blocked reading and a blocking write cannot deadlock.  Every
   worker reports over its own result pipe, length-prefixed frames, and
   the parent multiplexes the pipes with [select].

   Results: a tree over a scanner buffer (every tree the language
   tokenizers give) does not cross the pipe.  Each worker keeps one result
   file for the pool's life, created and unlinked by the parent before the
   fork, and writes each call's trees into it from its start: the tree's
   events and the word's kinds/starts/ends arrays, through a shared
   mapping.  It sends only a fixed header saying where they are.  As a
   header arrives, the parent reads that result out of the file into a
   fresh bigarray, while the worker parses its next file, and builds the
   result over its own copy of the input: no [Marshal], the input text
   never travels back, and no result refers to a file its worker
   rewrites.  Everything else — a reject, a lexer error, a tree over a
   token list, the call's accounting — is a small marshalled frame.

   Crash isolation: a worker that dies (OOM, signal, runtime failure)
   closes its result pipe; the parent keeps serving the remaining workers,
   the dead worker's in-flight file surfaces as a typed per-file error,
   and every other file is still parsed.  The next call forks a
   replacement.  A domain crash, by contrast, would take the whole process
   down. *)

(* What a worker sends back at the end of a call, about that call. *)
type call_report = {
  r_files : int;
  r_bytes : int;
  r_new_states : int;  (** DFA states interned during the call *)
  r_counters : Instr.cache_counters;
  r_learned : Cache.learned list;  (** what the worker's cache learned by itself *)
}

type prefork_msg =
  | Pf_result of int * (Parser.result, string) result
  | Pf_done of call_report

(* A result in a worker's result file: from int32 element [off], the
   events [0 .. nev - 1] (two elements each; [root] is the root event),
   then the kinds, the starts and the ends of [ntok] tokens. *)
type shared = {
  sh_file : int;  (** input index *)
  sh_ambig : bool;
  sh_off : int;
  sh_nev : int;
  sh_root : int;
  sh_ntok : int;
}

(* A frame is a 4-byte LE payload length, then the payload: a kind byte
   and its body — a marshalled [prefork_msg], or a [shared] header as
   five 8-byte LE ints (file, off, nev, root, ntok). *)
let frame_marshal = 'M'
let frame_unique = 'U'
let frame_ambig = 'A'
let header_len = 1 + (5 * 8)

(* A request, parent to worker, is a kind byte and its body: a call start
   carries [Instr.enabled] as one byte; an item, the file index as a
   4-byte LE int, the input's length as an 8-byte LE int, then the input;
   an end of call, nothing.  End of file on the pipe means quit. *)
let req_start = 'S'
let req_item = 'I'
let req_end = 'E'
let item_head_len = 1 + 4 + 8

(* [single_write] returns what one write(2) took, so a signal never loses
   a partial count. *)
let rec write_all fd b off len =
  if len > 0 then
    match Unix.single_write fd b off len with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b off len
    | k -> write_all fd b (off + k) (len - k)

let rec write_all_string fd s off len =
  if len > 0 then
    match Unix.single_write_substring fd s off len with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all_string fd s off len
    | k -> write_all_string fd s (off + k) (len - k)

(* Reads [len] bytes or raises [End_of_file]. *)
let rec read_exact fd b off len =
  if len > 0 then
    match Unix.read fd b off len with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_exact fd b off len
    | 0 -> raise End_of_file
    | k -> read_exact fd b (off + k) (len - k)

let le32_of_bytes b off =
  Char.code (Bytes.get b off)
  lor (Char.code (Bytes.get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.get b (off + 3)) lsl 24)

let le32_to_bytes b off v =
  Bytes.set b off (Char.chr (v land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 3) (Char.chr ((v lsr 24) land 0xff))

let send_msg fd (msg : prefork_msg) =
  let payload = Marshal.to_bytes msg [] in
  let len = Bytes.length payload in
  let b = Bytes.create (5 + len) in
  le32_to_bytes b 0 (1 + len);
  Bytes.set b 4 frame_marshal;
  Bytes.blit payload 0 b 5 len;
  write_all fd b 0 (5 + len)

(* [hdr] is the worker's own [4 + header_len]-byte frame buffer. *)
let send_shared fd hdr sh =
  le32_to_bytes hdr 0 header_len;
  Bytes.set hdr 4 (if sh.sh_ambig then frame_ambig else frame_unique);
  List.iteri
    (fun k v -> Bytes.set_int64_le hdr (5 + (8 * k)) (Int64.of_int v))
    [ sh.sh_file; sh.sh_off; sh.sh_nev; sh.sh_root; sh.sh_ntok ];
  write_all fd hdr 0 (4 + header_len)

let shared_of_frame b pos ~ambig =
  let field k = Int64.to_int (Bytes.get_int64_le b (pos + (8 * k))) in
  {
    sh_file = field 0;
    sh_ambig = ambig;
    sh_off = field 1;
    sh_nev = field 2;
    sh_root = field 3;
    sh_ntok = field 4;
  }

(* {3 Result files} *)

(* /dev/shm when it is writable: a tmpfs, so results never reach a disk. *)
let result_dir () =
  let shm = "/dev/shm" in
  match Unix.access shm [ Unix.W_OK; Unix.X_OK ] with
  | () when Sys.is_directory shm -> shm
  | () | (exception (Unix.Unix_error _ | Sys_error _)) -> Filename.get_temp_dir_name ()

let result_seq = ref 0

(* A fresh file, unlinked at once: it lives as long as an open descriptor
   or a mapping of it, so no exit path leaves it behind. *)
let rec open_result_file dir =
  incr result_seq;
  let name =
    Filename.concat dir (Printf.sprintf "costar-prefork-%d-%d" (Unix.getpid ()) !result_seq)
  in
  match Unix.openfile name [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_EXCL; Unix.O_CLOEXEC ] 0o600 with
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> open_result_file dir
  | fd ->
    (try Unix.unlink name
     with e ->
       Unix.close fd;
       raise e);
    fd

let map_int32 fd ~pos n : Token_buf.int_array =
  Bigarray.array1_of_genarray
    (Unix.map_file fd ~pos:(Int64.of_int (4 * pos)) Bigarray.int32 Bigarray.c_layout true [| n |])

(* The worker's side of its result file: results are packed into mapped
   windows of at least [window] elements, each starting at a multiple of
   [window_align] elements (64 KiB, a multiple of the page size), so a
   worker maps once per megabyte of results, not once per file.  The file
   grows with each window; its unwritten tail stays a hole. *)
type outbox = {
  ob_fd : Unix.file_descr;
  mutable win : Token_buf.int_array;
  mutable win_at : int;  (** element offset of [win] in the file *)
  mutable used : int;  (** elements of [win] written *)
}

let window = 1 lsl 18
let window_align = 1 lsl 14

let outbox_create fd =
  { ob_fd = fd; win = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout 0; win_at = 0; used = 0 }

(* Room for [need] elements: the index in [win] where they start. *)
let outbox_reserve ob need =
  if ob.used + need > Bigarray.Array1.dim ob.win then begin
    let next = ob.win_at + ob.used in
    let at = (next + window_align - 1) / window_align * window_align in
    ob.win <- map_int32 ob.ob_fd ~pos:at (max need window);
    ob.win_at <- at;
    ob.used <- 0
  end;
  let k = ob.used in
  ob.used <- k + need;
  k

(* Back to the start of the file for a new call; the parent has copied
   out everything the last call wrote.  A window that does not start at
   element 0 is replaced by one that does and spans what the last call
   used, so a call of that size again fits one window.  If that window
   cannot be mapped, the call goes on in the current one. *)
let outbox_rewind ob =
  (if ob.win_at <> 0 then
     match map_int32 ob.ob_fd ~pos:0 (max window (ob.win_at + ob.used)) with
     | win ->
       ob.win <- win;
       ob.win_at <- 0
     | exception Unix.Unix_error _ -> ());
  ob.used <- 0

let copy_tokens ob k buf ntok =
  let copy (src : Token_buf.int_array) at =
    Bigarray.Array1.blit (Bigarray.Array1.sub src 0 ntok) (Bigarray.Array1.sub ob.win (k + at) ntok)
  in
  copy (Token_buf.kinds_unsafe buf) 0;
  copy (Token_buf.starts_unsafe buf) ntok;
  copy (Token_buf.ends_unsafe buf) (2 * ntok)

(* Copy tree [t] over [buf]'s tokens into the result file: the tree's own
   events, moved to the front (root [nev - 1]), then the three token
   arrays. *)
let put_shared ob i ~ambig t buf =
  let ev, root = Tree.to_events t in
  let nev = Tree.size t in
  let ntok = Token_buf.length buf in
  let k = outbox_reserve ob ((2 * nev) + (3 * ntok)) in
  Bigarray.Array1.blit
    (Bigarray.Array1.sub ev (2 * (root - nev + 1)) (2 * nev))
    (Bigarray.Array1.sub ob.win k (2 * nev));
  copy_tokens ob (k + (2 * nev)) buf ntok;
  { sh_file = i; sh_ambig = ambig; sh_off = ob.win_at + k; sh_nev = nev; sh_root = nev - 1; sh_ntok = ntok }

(* What a worker does with a word over a scanner buffer. *)
type parsed =
  | In_place of shared  (** the tree is already in the result file *)
  | Parsed of Parser.result

(* Parse straight into the result file.  The worker reserves room for as
   many events as the parser's density predicts, plus the token arrays,
   and the machine writes its tree into that room; the token arrays go
   right after the events it used, and the rest of the room is handed
   back, so the layout is [put_shared]'s.  A parse that outgrows the room
   continues in fresh memory ({!Tree.Events.over}), and a reject leaves
   nothing: both hand the whole room back.  So does a window that cannot
   be mapped, before the parse.  The density only rises: the machine sets
   it to each tree's own, and a worker keeps the largest it has seen, so
   after one overflow the like-sized files that follow fit. *)
let parse_in_place ob p i word buf =
  let ntok = Token_buf.length buf in
  let env = Parser.env p in
  let density = env.Machine.events_per_token in
  let room = (density * ntok) + 16 in
  match outbox_reserve ob ((2 * room) + (3 * ntok)) with
  | exception Unix.Unix_error _ -> Parsed (Parser.run_word p word)
  | k -> (
    let view = Bigarray.Array1.sub ob.win k (2 * room) in
    let events = Tree.Events.over view in
    let r = Parser.run_word ~events p word in
    if env.Machine.events_per_token < density then env.Machine.events_per_token <- density;
    match r with
    | (Parser.Unique t | Parser.Ambig t) when Tree.Events.storage events == view ->
      let nev = Tree.size t in
      copy_tokens ob (k + (2 * nev)) buf ntok;
      ob.used <- k + (2 * nev) + (3 * ntok);
      In_place
        {
          sh_file = i;
          sh_ambig = (match r with Parser.Ambig _ -> true | _ -> false);
          sh_off = ob.win_at + k;
          sh_nev = nev;
          sh_root = nev - 1;
          sh_ntok = ntok;
        }
    | r ->
      ob.used <- k;
      Parsed r)

(* The parent's side.  A header is used only once its fields are in
   range: no sum below can overflow, and the region lies in the mapping. *)
let shared_len sh = (2 * sh.sh_nev) + (3 * sh.sh_ntok)

let shared_sane sh =
  let bound = 1 lsl 40 in
  sh.sh_off >= 0 && sh.sh_off < bound && sh.sh_nev >= 1 && sh.sh_nev < bound
  && sh.sh_ntok >= 0 && sh.sh_ntok < bound && sh.sh_root >= 0 && sh.sh_root < sh.sh_nev

(* Every token lies within the parent's copy of the input. *)
let offsets_within (starts : Token_buf.int_array) (ends : Token_buf.int_array) ntok len =
  let ok = ref true in
  for k = 0 to ntok - 1 do
    let s = Int32.to_int (Bigarray.Array1.unsafe_get starts k) in
    let e = Int32.to_int (Bigarray.Array1.unsafe_get ends k) in
    if s < 0 || s > len || e < 0 || e > len then ok := false
  done;
  !ok

(* The parent reads results with read(2), not through a mapping: a
   mapping's pages would stay resident beside the copies until a major
   cycle finds it dead, doubling the parent's footprint for its largest
   call.  A read lands in the pool's [chunk] buffer and is converted into
   the result's own array. *)
external get_int32_unsafe : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

let chunk_len = 65536

(* Read [len] elements from the current offset of [fd] into [dst]. *)
let read_elements fd chunk (dst : Token_buf.int_array) len =
  let k = ref 0 in
  while !k < len do
    let want = min (chunk_len / 4) (len - !k) in
    read_exact fd chunk 0 (4 * want);
    let base = !k in
    for i = 0 to want - 1 do
      Bigarray.Array1.unsafe_set dst (base + i) (get_int32_unsafe chunk (4 * i))
    done;
    k := base + want
  done

(* The result [sh] names in worker file [fd], copied into a fresh array
   and checked there, so that the worker may overwrite its file at the
   next call. *)
let shared_result fd chunk sh input =
  if not (shared_sane sh) then Error "costar batch: worker result lies outside its result file"
  else
    let len = shared_len sh in
    let copy = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout len in
    match
      ignore (Unix.LargeFile.lseek fd (Int64.of_int (4 * sh.sh_off)) Unix.SEEK_SET);
      read_elements fd chunk copy len
    with
    | exception End_of_file -> Error "costar batch: worker result lies outside its result file"
    | exception Unix.Unix_error (e, _, _) ->
      Error ("costar batch: cannot read a worker's result file: " ^ Unix.error_message e)
    | () ->
      let region at len = Bigarray.Array1.sub copy at len in
      let n = sh.sh_ntok and ev_len = 2 * sh.sh_nev in
      let kinds = region ev_len n in
      let starts = region (ev_len + n) n in
      let ends = region (ev_len + (2 * n)) n in
      if not (offsets_within starts ends n (String.length input)) then
        Error "costar batch: worker result has tokens outside its input"
      else
        let word = Word.of_buf (Token_buf.of_arrays input n kinds starts ends) in
        match Tree.of_events (region 0 ev_len) word sh.sh_root with
        | exception Invalid_argument _ -> Error "costar batch: worker result has a malformed tree"
        | t -> Ok (if sh.sh_ambig then Parser.Ambig t else Parser.Unique t)

(* {3 The parent's inbox} *)

(* A worker's result pipe, as seen by the parent: bytes [rd, wr) of [buf]
   are received but not yet decoded.  Reads land directly at [wr] and
   complete frames are decoded in place from [rd], so a frame is copied
   only when the buffer must be compacted or grown — never once per
   read, however many reads a large frame takes. *)
type inbox = {
  mutable buf : Bytes.t;
  mutable rd : int;
  mutable wr : int;
}

let read_size = 65536
let inbox_create () = { buf = Bytes.create read_size; rd = 0; wr = 0 }

(* Make room for one [read_size] read at [wr]: slide the undecoded bytes to
   the front when that frees enough (at least half the buffer is already
   decoded), otherwise double the buffer.  Either way the bytes moved are
   at most one partial frame, and growth is geometric. *)
let inbox_reserve ib =
  let cap = Bytes.length ib.buf in
  if cap - ib.wr < read_size then begin
    let pending = ib.wr - ib.rd in
    let dst =
      if pending + read_size <= cap / 2 then ib.buf
      else Bytes.create (max (2 * cap) (pending + read_size))
    in
    Bytes.blit ib.buf ib.rd dst 0 pending;
    ib.buf <- dst;
    ib.rd <- 0;
    ib.wr <- pending
  end

(* Whether a whole frame starts at [rd]. *)
let inbox_complete ib =
  let avail = ib.wr - ib.rd in
  avail >= 4 && avail - 4 >= le32_of_bytes ib.buf ib.rd

(* {3 The worker} *)

(* A worker's minor heap, in words.  The one it inherits is the
   parent's, copy-on-write: its first minor cycles would copy every page
   of it.  A fresh small one is faulted in once and stays in cache. *)
let worker_minor_heap = 32768

(* Serve requests until the parent quits.  The worker's counters, its
   learned-entry mark and its state count are reset at each call start,
   so its report covers that call alone. *)
let worker_loop p ~tokenize req out ob =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = worker_minor_heap };
  let cache = Parser.base_cache p in
  let head = Bytes.create item_head_len in
  let hdr = Bytes.create (4 + header_len) in
  let files = ref 0 and bytes_n = ref 0 in
  let learned_mark = ref 0 and states_mark = ref 0 in
  let serve i input =
    match tokenize input with
    | Error msg -> send_msg out (Pf_result (i, Error msg))
    | Ok word -> (
      match word.Word.src with
      | Word.Buf buf -> (
        match parse_in_place ob p i word buf with
        | In_place sh -> send_shared out hdr sh
        | Parsed ((Parser.Unique t | Parser.Ambig t) as r) -> (
          let ambig = match r with Parser.Ambig _ -> true | _ -> false in
          match put_shared ob i ~ambig t buf with
          | sh -> send_shared out hdr sh
          | exception Unix.Unix_error _ -> send_msg out (Pf_result (i, Ok r)))
        | Parsed r -> send_msg out (Pf_result (i, Ok r)))
      | Word.Tokens _ -> send_msg out (Pf_result (i, Ok (Parser.run_word p word))))
  in
  (try
     while true do
       read_exact req head 0 1;
       let kind = Bytes.get head 0 in
       if kind = req_start then begin
         read_exact req head 1 1;
         Instr.enabled := Bytes.get head 1 <> '\000';
         Instr.reset ();
         learned_mark := Cache.learned_count cache;
         states_mark := Cache.num_states cache;
         files := 0;
         bytes_n := 0;
         outbox_rewind ob
       end
       else if kind = req_item then begin
         read_exact req head 1 (item_head_len - 1);
         let i = le32_of_bytes head 1 in
         let len = Int64.to_int (Bytes.get_int64_le head 5) in
         let text = Bytes.create len in
         read_exact req text 0 len;
         serve i (Bytes.unsafe_to_string text);
         incr files;
         bytes_n := !bytes_n + len
       end
       else if kind = req_end then
         send_msg out
           (Pf_done
              {
                r_files = !files;
                r_bytes = !bytes_n;
                r_new_states = Cache.num_states cache - !states_mark;
                r_counters = Instr.cache_totals ();
                r_learned = Cache.learned_since cache !learned_mark;
              })
       else raise Exit
     done
   with _ -> ());
  (try Unix.close out with Unix.Unix_error _ -> ());
  (* Skip at_exit/channel flushing: any buffered output in this image
     belongs to the parent and must not be emitted twice. *)
  Unix._exit 0

(* {3 Pools} *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* One worker of a pool.  The pipes and the pid are meaningful while
   [pid <> 0]; the rest is the current call's. *)
type slot = {
  file : Unix.file_descr;  (** the worker's result file, for the pool's life *)
  inbox : inbox;
  mutable pid : int;  (** 0: no live worker *)
  mutable req : Unix.file_descr;  (** the parent's end of the request pipe *)
  mutable res : Unix.file_descr;  (** the parent's end of the result pipe *)
  mutable in_flight : int;  (** the file the worker has, or -1 *)
  mutable finished : bool;  (** its report arrived, or it died *)
  mutable report : call_report option;
}

type pool = {
  owner : int;  (** the process that forked the workers; only it releases them *)
  parser : Parser.t Weak.t;  (** weak, so that the parser can be collected *)
  current : pool option ref;
      (** the parser's live pool, which its finaliser releases; shared by
          the pools that replace one another on that parser *)
  tokenize : string -> (Word.t, string) result;
  slots : slot array;
  head : Bytes.t;  (** request header scratch *)
  chunk : Bytes.t;  (** result read buffer *)
  mutable closed : bool;
}

let pools : pool list ref = ref []

(* Workers whose pipes are closed but which have not been waited for. *)
let unreaped : int list ref = ref []

(* Close a worker's pipes: it reads that as quit. *)
let detach s =
  if s.pid <> 0 then begin
    close_quietly s.req;
    close_quietly s.res;
    unreaped := s.pid :: !unreaped;
    s.pid <- 0
  end

(* Release a pool without waiting: its workers exit at their next read and
   are reaped by a later call or [shutdown].  It runs from the parser's
   finaliser too, so it does nothing in any process but the owner, which
   a forked child also inherits. *)
let release pool =
  if (not pool.closed) && pool.owner = Unix.getpid () then begin
    pool.closed <- true;
    (match !(pool.current) with Some q when q == pool -> pool.current := None | _ -> ());
    Array.iter
      (fun s ->
        detach s;
        close_quietly s.file)
      pool.slots;
    pools := List.filter (fun q -> not q.closed) !pools
  end

(* Whether [pid] is gone: waited for now, or not a child of ours. *)
let rec reaped flags pid =
  match Unix.waitpid flags pid with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reaped flags pid
  | exception Unix.Unix_error _ -> true
  | 0, _ -> false
  | _ -> true

let reap flags =
  if !unreaped <> [] then unreaped := List.filter (fun pid -> not (reaped flags pid)) !unreaped

let shutdown () =
  List.iter release !pools;
  reap []

let () = at_exit shutdown

(* Whether closures [f] and [g] run the same code over physically equal
   captured values: the fields before the closure info's start of
   environment (code pointers and closure info) compare raw, and the
   environment fields with [==].  So a partial application [tokenize l]
   built afresh for each call is one tokenizer.  The native compiler gives
   each partial-application site code of its own, so the applications
   must come from one site. *)
let same_closure f g =
  let f = Obj.repr f and g = Obj.repr g in
  f == g
  || Obj.tag f = Obj.closure_tag
     && Obj.tag g = Obj.closure_tag
     && Obj.size f = Obj.size g
     &&
     let start_env o =
       Nativeint.(to_int (shift_right_logical (shift_left (Obj.raw_field o 1) 8) 9))
     in
     let start = start_env f and size = Obj.size f in
     let rec code i = i >= start || (Nativeint.equal (Obj.raw_field f i) (Obj.raw_field g i) && code (i + 1)) in
     let rec env i = i >= size || (Obj.field f i == Obj.field g i && env (i + 1)) in
     start = start_env g && start <= size && code 0 && env start

let create_pool p ~workers ~tokenize ~current =
  let dir = result_dir () in
  let opened = ref [] in
  let slots =
    try
      Array.init workers (fun _ ->
          let file = open_result_file dir in
          opened := file :: !opened;
          {
            file;
            inbox = inbox_create ();
            pid = 0;
            req = file;
            res = file;
            in_flight = -1;
            finished = true;
            report = None;
          })
    with e ->
      List.iter close_quietly !opened;
      raise e
  in
  let parser = Weak.create 1 in
  Weak.set parser 0 (Some p);
  let pool =
    {
      owner = Unix.getpid ();
      parser;
      current;
      tokenize;
      slots;
      head = Bytes.create item_head_len;
      chunk = Bytes.create chunk_len;
      closed = false;
    }
  in
  pools := pool :: !pools;
  current := Some pool;
  pool

(* [p]'s pool in this process when it has [workers] workers and
   [tokenize] is its tokenizer; otherwise the old pool goes and a new one
   (not yet forked) takes its place.  A replacement inherits the old
   pool's finaliser through [current], so a parser that changes
   tokenizers does not keep every pool it had until it is collected. *)
let find_pool p ~workers ~tokenize =
  let me = Unix.getpid () in
  let ours pool =
    pool.owner = me && match Weak.get pool.parser 0 with Some q -> q == p | None -> false
  in
  match List.find_opt ours !pools with
  | Some pool when Array.length pool.slots = workers && same_closure pool.tokenize tokenize -> pool
  | old ->
    let current =
      match old with
      | Some q -> q.current
      | None ->
        let current = ref None in
        Gc.finalise (fun _ -> Option.iter release !current) p;
        current
    in
    Option.iter release old;
    create_pool p ~workers ~tokenize ~current

(* Fork the worker of slot [k].  The child closes every descriptor the
   parent holds for any pool, its own pool's pipes included, except its
   own result file. *)
let fork_worker pool p k =
  let s = pool.slots.(k) in
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let res_r, res_w =
    try Unix.pipe ~cloexec:true ()
    with e ->
      close_quietly req_r;
      close_quietly req_w;
      raise e
  in
  match Unix.fork () with
  | exception e ->
    List.iter close_quietly [ req_r; req_w; res_r; res_w ];
    raise e
  | 0 ->
    close_quietly req_w;
    close_quietly res_r;
    List.iter
      (fun q ->
        if not q.closed then
          Array.iter
            (fun s' ->
              if s'.pid <> 0 then begin
                close_quietly s'.req;
                close_quietly s'.res
              end;
              if s' != s then close_quietly s'.file)
            q.slots)
      !pools;
    worker_loop p ~tokenize:pool.tokenize req_r res_w (outbox_create s.file)
  | pid ->
    Unix.close req_r;
    Unix.close res_w;
    s.pid <- pid;
    s.req <- req_w;
    s.res <- res_r

(* {3 One call} *)

type call = {
  pool : pool;
  inputs : string array;
  results : (Parser.result, string) result array;  (** a file no worker answers keeps its error *)
  mutable next : int;  (** the next file to hand out *)
  mutable pending : int;  (** live workers whose report has not arrived *)
  mutable live : Unix.file_descr list;  (** their result pipes *)
  mutable density : int;  (** the largest event density among the call's shared trees *)
}

(* Worker [s] died: its in-flight file stays unreported. *)
let lost c s =
  if not s.finished then begin
    s.finished <- true;
    c.pending <- c.pending - 1
  end;
  if s.pid <> 0 then begin
    c.live <- List.filter (fun fd -> fd <> s.res) c.live;
    detach s
  end;
  s.inbox.rd <- 0;
  s.inbox.wr <- 0

(* Send a request; a worker that cannot take it is lost. *)
let send c s len =
  match write_all s.req c.pool.head 0 len with
  | () -> true
  | exception Unix.Unix_error _ ->
    lost c s;
    false

(* Hand idle worker [s] the next file, or the end of the call. *)
let feed c s =
  let head = c.pool.head in
  if c.next < Array.length c.inputs then begin
    let i = c.next in
    let input = c.inputs.(i) in
    c.next <- i + 1;
    s.in_flight <- i;
    Bytes.set head 0 req_item;
    le32_to_bytes head 1 i;
    Bytes.set_int64_le head 5 (Int64.of_int (String.length input));
    if send c s item_head_len then
      match write_all_string s.req input 0 (String.length input) with
      | () -> ()
      | exception Unix.Unix_error _ -> lost c s
  end
  else begin
    Bytes.set head 0 req_end;
    ignore (send c s 1)
  end

(* The worker's answer to its in-flight file arrived; a frame naming any
   other file is dropped. *)
let answered c s i =
  if s.in_flight >= 0 then begin
    let ok = i = s.in_flight in
    s.in_flight <- -1;
    feed c s;
    ok
  end
  else false

(* Decode every complete frame in [s]'s inbox, in place. *)
let drain c s =
  let ib = s.inbox in
  while s.pid <> 0 && inbox_complete ib do
    let m = le32_of_bytes ib.buf ib.rd in
    let at = ib.rd + 5 in
    let kind = if m > 0 then Bytes.get ib.buf (ib.rd + 4) else ' ' in
    ib.rd <- ib.rd + 4 + m;
    if kind = frame_marshal then (
      match (Marshal.from_bytes ib.buf at : prefork_msg) with
      | Pf_result (i, outcome) -> if answered c s i then c.results.(i) <- outcome
      | Pf_done r ->
        s.report <- Some r;
        if not s.finished then begin
          s.finished <- true;
          c.pending <- c.pending - 1
        end)
    else if (kind = frame_unique || kind = frame_ambig) && m = header_len then begin
      let sh = shared_of_frame ib.buf at ~ambig:(kind = frame_ambig) in
      if answered c s sh.sh_file then begin
        (* The worker is already on its next file: copying this one out
           overlaps with that parse. *)
        let r = shared_result s.file c.pool.chunk sh c.inputs.(sh.sh_file) in
        c.results.(sh.sh_file) <- r;
        match r with
        | Ok _ when sh.sh_ntok > 0 ->
          c.density <- max c.density ((sh.sh_nev + sh.sh_ntok - 1) / sh.sh_ntok)
        | _ -> ()
      end
    end
  done;
  if ib.rd = ib.wr then begin
    ib.rd <- 0;
    ib.wr <- 0
  end

let slot_of slots fd =
  let rec go k = if slots.(k).pid <> 0 && slots.(k).res = fd then slots.(k) else go (k + 1) in
  go 0

(* Open the call on every worker, forking one for each slot without a
   live worker (a new pool, or one that died); a worker found dead here is
   replaced at once.  Returns how many were forked. *)
let start_call c p =
  let head = c.pool.head in
  Bytes.set head 0 req_start;
  Bytes.set head 1 (if !Instr.enabled then '\001' else '\000');
  let forked = ref 0 in
  Array.iteri
    (fun k s ->
      s.in_flight <- -1;
      s.report <- None;
      s.inbox.rd <- 0;
      s.inbox.wr <- 0;
      if s.pid <> 0 then ignore (send c s 2);
      if s.pid = 0 then begin
        (* Force what the worker will read, so it inherits it built. *)
        if !forked = 0 then (try ignore (c.pool.tokenize "") with _ -> ());
        fork_worker c.pool p k;
        incr forked;
        ignore (send c s 2)
      end;
      if s.pid <> 0 then begin
        s.finished <- false;
        c.pending <- c.pending + 1;
        c.live <- s.res :: c.live
      end
      else s.finished <- true)
    c.pool.slots;
  !forked

(* Serve one call; returns how many workers it forked. *)
let serve_call c p =
  let forked = start_call c p in
  Array.iter (fun s -> if s.pid <> 0 then feed c s) c.pool.slots;
  while c.pending > 0 do
    match Unix.select c.live [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
      List.iter
        (fun fd ->
          if List.mem fd c.live then begin
            let s = slot_of c.pool.slots fd in
            let ib = s.inbox in
            inbox_reserve ib;
            match Unix.read fd ib.buf ib.wr read_size with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | exception Unix.Unix_error _ -> lost c s
            | 0 -> lost c s
            | k ->
              ib.wr <- ib.wr + k;
              drain c s
          end)
        readable
  done;
  forked

(* What the workers learned, taught to the parent's own cache, so that a
   worker it forks later starts warm: the table cells and decoded image
   states they report are recomputed by [Cache.replay], and the event
   density becomes the largest among this call's trees.  Once the parent
   is warm the workers report nothing, and this allocates nothing. *)
let learn_back p c =
  Array.iter
    (fun s ->
      match s.report with
      | Some { r_learned = _ :: _ as l; _ } -> Cache.replay (Parser.base_cache p) l
      | _ -> ())
    c.pool.slots;
  if c.density > 0 then (Parser.env p).Machine.events_per_token <- c.density

let run_prefork ?(workers = 2) p ~tokenize inputs =
  let n = Array.length inputs in
  let workers = max 1 workers in
  reap [ Unix.WNOHANG ];
  let states_before = Cache.num_states (Parser.base_cache p) in
  let results = Array.make n (Error "costar batch: worker process exited before reporting this file") in
  let reports = Array.make workers None in
  let forked =
    if n = 0 then 0
    else begin
      let pool = find_pool p ~workers ~tokenize in
      let c =
        { pool; inputs; results; next = 0; pending = 0; live = []; density = 0 }
      in
      (* A worker may die while the parent writes to it: that must surface
         as EPIPE, not SIGPIPE. *)
      let old_sigpipe =
        try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
        with Invalid_argument _ | Sys_error _ -> None
      in
      let restore () =
        match old_sigpipe with
        | Some h -> ( try Sys.set_signal Sys.sigpipe h with _ -> ())
        | None -> ()
      in
      match serve_call c p with
      | exception e ->
        (* The workers may be mid-call: the pool cannot be trusted. *)
        restore ();
        release pool;
        raise e
      | forked ->
        restore ();
        learn_back p c;
        Array.iteri (fun k s -> reports.(k) <- s.report) pool.slots;
        forked
    end
  in
  let per_domain =
    Array.map
      (function
        | Some r ->
          { ds_files = r.r_files; ds_bytes = r.r_bytes; ds_new_states = r.r_new_states; ds_cache = r.r_counters }
        | None -> { ds_files = 0; ds_bytes = 0; ds_new_states = 0; ds_cache = Instr.sum_cache_counters [] })
      reports
  in
  ( results,
    {
      st_domains = workers;
      st_rounds = 1;
      st_files = n;
      st_bytes = Array.fold_left (fun a d -> a + d.ds_bytes) 0 per_domain;
      st_states_before = states_before;
      st_states_after = Cache.num_states (Parser.base_cache p);
      st_forked = forked;
      st_per_domain = per_domain;
    } )
