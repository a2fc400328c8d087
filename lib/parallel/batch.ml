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

   Work distribution: one shared work pipe.  The parent feeds 4-byte LE
   file indices (each write atomic, far below PIPE_BUF) and closes the
   write end when done; workers blocking-read one index at a time, so
   large files load-balance exactly like the atomic cursor above.  Every
   worker reports over its own result pipe — length-prefixed frames,
   parent↔own-child only — and the parent multiplexes the pipes with
   [select], feeding work and draining results in one loop.

   Results: a tree over a scanner buffer (every tree the language
   tokenizers give) does not cross the pipe.  Before forking, the parent
   creates one result file per worker and unlinks it at once; the worker
   copies the tree's events and the word's kinds/starts/ends arrays into
   its file through a shared mapping and sends only a fixed header saying
   where they are.  After [waitpid] the parent maps each file once and
   builds every such result as views into that mapping, over its own copy
   of the input: no [Marshal], and the input text never travels back.  A
   result lives as long as any view of its mapping.  Everything else — a
   reject, a lexer error, a tree over a token list, the final stats — is a
   small marshalled frame.

   Crash isolation: a worker that dies (OOM, signal, runtime failure)
   closes its result pipe; the parent keeps serving the remaining workers,
   the dead worker's claimed-but-unreported file surfaces as a typed
   per-file error, and every other file is still parsed.  Its result file
   is mapped only up to the last header it sent.  A domain crash, by
   contrast, would take the whole process down. *)

type prefork_msg =
  | Pf_result of int * (Parser.result, string) result
  | Pf_done of int * int * int * Instr.cache_counters * Cache.learned list
      (* files, bytes, states interned past the inherited base, and what
         the worker's cache learned by itself *)

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

let rec write_all fd b off len =
  if len > 0 then begin
    let k = Unix.write fd b off len in
    write_all fd b (off + k) (len - k)
  end

(* Reads [len] bytes or raises [End_of_file].  The work pipe is shared by
   all workers, but the parent writes whole 4-byte indices atomically and
   every reader requests whole indices, so the pipe content stays
   4-aligned and short reads cannot interleave between workers; the loop
   is belt-and-braces. *)
let rec read_exact fd b off len =
  if len > 0 then begin
    let k = Unix.read fd b off len in
    if k = 0 then raise End_of_file;
    read_exact fd b (off + k) (len - k)
  end

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

let map_int32 fd ~pos ~shared n : Token_buf.int_array =
  Bigarray.array1_of_genarray
    (Unix.map_file fd ~pos:(Int64.of_int (4 * pos)) Bigarray.int32 Bigarray.c_layout shared [| n |])

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
    ob.win <- map_int32 ob.ob_fd ~pos:at ~shared:true (max need window);
    ob.win_at <- at;
    ob.used <- 0
  end;
  let k = ob.used in
  ob.used <- k + need;
  k

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
   be mapped, before the parse. *)
let parse_in_place ob p i word buf =
  let ntok = Token_buf.length buf in
  let room = ((Parser.env p).Machine.events_per_token * ntok) + 16 in
  match outbox_reserve ob ((2 * room) + (3 * ntok)) with
  | exception Unix.Unix_error _ -> Parsed (Parser.run_word p word)
  | k -> (
    let view = Bigarray.Array1.sub ob.win k (2 * room) in
    let events = Tree.Events.over view in
    let r = Parser.run_word ~events p word in
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

let shared_result (file : Token_buf.int_array) sh input =
  if not (shared_sane sh && sh.sh_off + shared_len sh <= Bigarray.Array1.dim file) then
    Error "costar batch: worker result lies outside its result file"
  else
    let region at len = Bigarray.Array1.sub file (sh.sh_off + at) len in
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

(* OCaml 5.1 does not pace the major GC against mapped memory:
   [Unix.map_file] declares none.  A dead result mapping is unmapped only
   when a major cycle finds its views dead, so a caller that allocates
   little on the heap holds more dead result files the faster calls
   return.  A bigarray declares its size to the GC, which then runs a
   major cycle per [custom_major_ratio] of the heap allocated that way;
   this one is allocated and dropped untouched, so it costs address
   space, not resident memory.  It declares half of the [mapped] bytes:
   on batch-prefork the whole size cost about a tenth of the throughput
   in major GC work, and half kept the parent's peak RSS below what it
   was when calls were a third slower (DESIGN.md §13.3). *)
let pace_major ~mapped =
  ignore (Sys.opaque_identity (Bigarray.Array1.create Bigarray.char Bigarray.c_layout (mapped / 2)))

(* Map worker's result file once, up to the end of the last region its
   headers name (a crashed worker's file may hold more), and build every
   shared result from it. *)
let collect_shared results inputs fd headers =
  let extent =
    List.fold_left
      (fun a sh -> if shared_sane sh then max a (sh.sh_off + shared_len sh) else a)
      0 headers
  in
  let file_len = Int64.to_int (Unix.LargeFile.fstat fd).Unix.LargeFile.st_size / 4 in
  let mapped =
    match min extent file_len with
    | 0 -> Ok (Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout 0)
    | len -> (
      match map_int32 fd ~pos:0 ~shared:false len with
      | file ->
        pace_major ~mapped:(4 * len);
        Ok file
      | exception Unix.Unix_error (e, _, _) ->
        Error ("costar batch: cannot map a worker's result file: " ^ Unix.error_message e))
  in
  List.iter
    (fun sh ->
      results.(sh.sh_file) <-
        (match mapped with
        | Ok file -> shared_result file sh inputs.(sh.sh_file)
        | Error msg -> Error msg))
    headers

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

(* A worker's minor heap, in words.  The one it inherits is the
   parent's, copy-on-write: its first minor cycles would copy every page
   of it.  A fresh small one is faulted in once and stays in cache. *)
let worker_minor_heap = 32768

let worker_loop p ~tokenize inputs work_r out ob states_inherited =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = worker_minor_heap };
  let cache = Parser.base_cache p in
  let learned_mark = Cache.learned_count cache in
  let idx = Bytes.create 4 in
  let hdr = Bytes.create (4 + header_len) in
  let files = ref 0 in
  let bytes_n = ref 0 in
  (try
     let rec go () =
       match read_exact work_r idx 0 4 with
       | exception End_of_file -> ()
       | () ->
         let i = le32_of_bytes idx 0 in
         let input = inputs.(i) in
         (match tokenize input with
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
           | Word.Tokens _ -> send_msg out (Pf_result (i, Ok (Parser.run_word p word)))));
         incr files;
         bytes_n := !bytes_n + String.length input;
         go ()
     in
     go ();
     send_msg out
       (Pf_done
          ( !files,
            !bytes_n,
            Cache.num_states cache - states_inherited,
            Instr.cache_totals (),
            Cache.learned_since cache learned_mark ))
   with _ -> ());
  (try Unix.close out with Unix.Unix_error _ -> ());
  (* Skip at_exit/channel flushing: any buffered output in this image
     belongs to the parent and must not be emitted twice. *)
  Unix._exit 0

(* The largest event density among the trees of [headers] that passed
   the header checks. *)
let rec max_density results d = function
  | [] -> d
  | sh :: rest ->
    let d =
      match results.(sh.sh_file) with
      | Ok (Parser.Unique _ | Parser.Ambig _) when sh.sh_ntok > 0 ->
        max d ((sh.sh_nev + sh.sh_ntok - 1) / sh.sh_ntok)
      | _ -> d
    in
    max_density results d rest

(* What the workers learned, taught to the parent's own cache, so the
   workers of its next call start warm: the table cells and decoded image
   states they report are recomputed by [Cache.replay], and the event
   density becomes the largest among this call's trees, so that the next
   workers' reservations hold their trees.  Once the parent is warm the
   workers report nothing, and this allocates nothing. *)
let learn_back p learned results headers =
  let density = ref 0 in
  for w = 0 to Array.length learned - 1 do
    (match learned.(w) with [] -> () | l -> Cache.replay (Parser.base_cache p) l);
    density := max_density results !density headers.(w)
  done;
  if !density > 0 then (Parser.env p).Machine.events_per_token <- !density

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let run_prefork ?(workers = 2) p ~tokenize inputs =
  let n = Array.length inputs in
  let workers = max 1 workers in
  (* Force everything workers will read BEFORE forking, so it is inherited
     ready-built (and, for an mmapped image base, shared physically). *)
  ignore (Parser.base_cache p);
  (try ignore (tokenize "") with _ -> ());
  let states_before = Cache.num_states (Parser.base_cache p) in
  let results = Array.make n (Error "costar batch: file not reached") in
  let per_files = Array.make workers 0 in
  let per_bytes = Array.make workers 0 in
  let per_new = Array.make workers 0 in
  let per_cache = Array.make workers [] in
  if n > 0 then begin
    (* Result files still open in the parent: each is closed once mapped,
       and every one on the way out, whatever happens. *)
    let res_files = Array.make workers None in
    let close_res w =
      Option.iter close_quietly res_files.(w);
      res_files.(w) <- None
    in
    Fun.protect ~finally:(fun () -> Array.iteri (fun w _ -> close_res w) res_files)
    @@ fun () ->
    let dir = result_dir () in
    Array.iteri (fun w _ -> res_files.(w) <- Some (open_result_file dir)) res_files;
    let res_fd w = Option.get res_files.(w) in
    let work_r, work_w = Unix.pipe ~cloexec:false () in
    let res_pipes = Array.init workers (fun _ -> Unix.pipe ~cloexec:false ()) in
    (* The parent may write work after every reader died (all workers
       crashed): that must surface as EPIPE, not SIGPIPE. *)
    let old_sigpipe =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ | Sys_error _ -> None
    in
    let pids =
      Array.init workers (fun w ->
          match Unix.fork () with
          | 0 ->
            (try
               Unix.close work_w;
               Array.iteri
                 (fun w' (r, wfd) ->
                   Unix.close r;
                   if w' <> w then Unix.close wfd)
                 res_pipes;
               Array.iteri (fun w' _ -> if w' <> w then close_res w') res_files
             with _ -> Unix._exit 2);
            worker_loop p ~tokenize inputs work_r (snd res_pipes.(w))
              (outbox_create (res_fd w)) states_before
          | pid -> pid)
    in
    Unix.close work_r;
    Array.iter (fun (_, wfd) -> Unix.close wfd) res_pipes;
    let reported = Array.make n false in
    let learned = Array.make workers [] in
    (* Each worker's shared-result headers, newest first. *)
    let headers = Array.make workers [] in
    (* The result pipes still open.  The list changes only when a worker
       exits, so the select loop below allocates per round only what
       [Unix.select] returns: the parent's allocation then stays a small
       constant per 64 KB read, however large the results. *)
    let live = ref (Array.to_list (Array.map fst res_pipes)) in
    let worker_of fd =
      let rec go w = if fst res_pipes.(w) = fd then w else go (w + 1) in
      go 0
    in
    let open_fds = ref workers in
    let inboxes = Array.init workers (fun _ -> inbox_create ()) in
    let next = ref 0 in
    let work_open = ref (n > 0) in
    let close_work () =
      if !work_open then begin
        work_open := false;
        close_quietly work_w
      end
    in
    let handle w = function
      | Pf_result (i, outcome) ->
        results.(i) <- outcome;
        reported.(i) <- true
      | Pf_done (files, bytes, new_states, counters, l) ->
        per_files.(w) <- files;
        per_bytes.(w) <- bytes;
        per_new.(w) <- new_states;
        per_cache.(w) <- [ counters ];
        learned.(w) <- l
    in
    (* Decode every complete frame in worker [w]'s inbox, in place.  A
       header naming no input of this call is dropped. *)
    let drain w =
      let ib = inboxes.(w) in
      while inbox_complete ib do
        let m = le32_of_bytes ib.buf ib.rd in
        let kind = if m > 0 then Bytes.get ib.buf (ib.rd + 4) else ' ' in
        if kind = frame_marshal then
          handle w (Marshal.from_bytes ib.buf (ib.rd + 5) : prefork_msg)
        else if (kind = frame_unique || kind = frame_ambig) && m = header_len then begin
          let sh = shared_of_frame ib.buf (ib.rd + 5) ~ambig:(kind = frame_ambig) in
          if sh.sh_file >= 0 && sh.sh_file < n then begin
            headers.(w) <- sh :: headers.(w);
            reported.(sh.sh_file) <- true
          end
        end;
        ib.rd <- ib.rd + 4 + m
      done;
      if ib.rd = ib.wr then begin
        ib.rd <- 0;
        ib.wr <- 0
      end
    in
    let idx_bytes = Bytes.create 4 in
    while !open_fds > 0 do
      let wfds = if !work_open && !next < n then [ work_w ] else [] in
      match Unix.select !live wfds [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, writable, _ ->
        List.iter
          (fun fd ->
            let w = worker_of fd in
            let ib = inboxes.(w) in
            inbox_reserve ib;
            match Unix.read fd ib.buf ib.wr read_size with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | 0 ->
              live := List.filter (fun fd' -> fd' <> fd) !live;
              decr open_fds;
              close_quietly fd
            | k ->
              ib.wr <- ib.wr + k;
              drain w)
          readable;
        if writable <> [] then begin
          le32_to_bytes idx_bytes 0 !next;
          match write_all work_w idx_bytes 0 4 with
          | () ->
            incr next;
            if !next >= n then close_work ()
          | exception Unix.Unix_error (Unix.EPIPE, _, _) ->
            (* Every reader is gone; the unfed files stay unreported. *)
            close_work ()
        end
    done;
    close_work ();
    Array.iter (fun pid -> try ignore (Unix.waitpid [] pid) with _ -> ()) pids;
    (match old_sigpipe with
    | Some h -> ( try Sys.set_signal Sys.sigpipe h with _ -> ())
    | None -> ());
    Array.iteri
      (fun w hs ->
        if hs <> [] then collect_shared results inputs (res_fd w) hs;
        close_res w)
      headers;
    learn_back p learned results headers;
    for i = 0 to n - 1 do
      if not reported.(i) then
        results.(i) <-
          Error "costar batch: worker process exited before reporting this file"
    done
  end;
  let per_domain =
    Array.init workers (fun w ->
        {
          ds_files = per_files.(w);
          ds_bytes = per_bytes.(w);
          ds_new_states = per_new.(w);
          ds_cache = Instr.sum_cache_counters per_cache.(w);
        })
  in
  ( results,
    {
      st_domains = workers;
      st_rounds = 1;
      st_files = n;
      st_bytes = Array.fold_left (fun a b -> a + b) 0 per_bytes;
      st_states_before = states_before;
      st_states_after = Cache.num_states (Parser.base_cache p);
      st_per_domain = per_domain;
    } )
