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
   worker reports over its own result pipe — length-prefixed marshalled
   messages, parent↔own-child only — and the parent multiplexes the pipes
   with [select], feeding work and draining results in one loop.

   Crash isolation: a worker that dies (OOM, signal, runtime failure)
   closes its result pipe; the parent keeps serving the remaining workers,
   the dead worker's claimed-but-unreported file surfaces as a typed
   per-file error, and every other file is still parsed.  A domain crash,
   by contrast, would take the whole process down. *)

type prefork_msg =
  | Pf_result of int * (Parser.result, string) result
  | Pf_done of int * int * int * Instr.cache_counters
      (* files, bytes, states interned past the inherited base *)

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
  let b = Bytes.create (4 + len) in
  le32_to_bytes b 0 len;
  Bytes.blit payload 0 b 4 len;
  write_all fd b 0 (4 + len)

(* A worker's result pipe, as seen by the parent: bytes [rd, wr) of [buf]
   are received but not yet decoded.  Reads land directly at [wr] and
   complete messages are decoded in place from [rd], so a message is
   copied only when the buffer must be compacted or grown — never once
   per read, however many reads a large result takes. *)
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
   at most one partial message, and growth is geometric. *)
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

(* Whether a whole length-prefixed message starts at [rd]. *)
let inbox_complete ib =
  let avail = ib.wr - ib.rd in
  avail >= 4 && avail - 4 >= le32_of_bytes ib.buf ib.rd

let worker_loop p ~tokenize inputs work_r out states_inherited =
  let idx = Bytes.create 4 in
  let files = ref 0 in
  let bytes_n = ref 0 in
  (try
     let rec go () =
       match read_exact work_r idx 0 4 with
       | exception End_of_file -> ()
       | () ->
         let i = le32_of_bytes idx 0 in
         let input = inputs.(i) in
         let outcome =
           match tokenize input with
           | Error msg -> Error msg
           | Ok word -> Ok (Parser.run_word p word)
         in
         send_msg out (Pf_result (i, outcome));
         incr files;
         bytes_n := !bytes_n + String.length input;
         go ()
     in
     go ();
     send_msg out
       (Pf_done
          ( !files,
            !bytes_n,
            Cache.num_states (Parser.base_cache p) - states_inherited,
            Instr.cache_totals () ))
   with _ -> ());
  (try Unix.close out with Unix.Unix_error _ -> ());
  (* Skip at_exit/channel flushing: any buffered output in this image
     belongs to the parent and must not be emitted twice. *)
  Unix._exit 0

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
            Unix.close work_w;
            Array.iteri
              (fun w' (r, wfd) ->
                Unix.close r;
                if w' <> w then Unix.close wfd)
              res_pipes;
            worker_loop p ~tokenize inputs work_r (snd res_pipes.(w))
              states_before
          | pid -> pid)
    in
    Unix.close work_r;
    Array.iter (fun (_, wfd) -> Unix.close wfd) res_pipes;
    let reported = Array.make n false in
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
        try Unix.close work_w with Unix.Unix_error _ -> ()
      end
    in
    let handle w = function
      | Pf_result (i, outcome) ->
        results.(i) <- outcome;
        reported.(i) <- true
      | Pf_done (files, bytes, new_states, counters) ->
        per_files.(w) <- files;
        per_bytes.(w) <- bytes;
        per_new.(w) <- new_states;
        per_cache.(w) <- [ counters ]
    in
    (* Decode every complete length-prefixed message in worker [w]'s inbox,
       in place. *)
    let drain w =
      let ib = inboxes.(w) in
      while inbox_complete ib do
        let m = le32_of_bytes ib.buf ib.rd in
        handle w (Marshal.from_bytes ib.buf (ib.rd + 4) : prefork_msg);
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
              (try Unix.close fd with Unix.Unix_error _ -> ())
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
