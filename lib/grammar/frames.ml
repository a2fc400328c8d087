open Symbols

type frame = int
type spine = int

type head =
  | Empty
  | Term of terminal * frame
  | Nonterm of nonterminal * frame

(* Full-depth hashing for symbol-list keys: the default [Hashtbl.hash]
   inspects only ~10 nodes, which would collide long right-hand-side
   suffixes.  Keys are short (bounded by max_rhs_len), so hashing them
   completely is cheap. *)
module Syms_tbl = Hashtbl.Make (struct
  type t = symbol list

  let equal a b = compare_symbols a b = 0
  let hash l = Hashtbl.hash_param 256 256 l
end)

type t = {
  (* Frame table: symbol-list suffix <-> dense id, with the decoded head
     precomputed so closure never re-inspects the symbol list. *)
  f_ids : frame Syms_tbl.t;
  mutable f_syms : symbol list array;
  mutable f_head : head array;
  mutable f_count : int;
  mutable static_frames : int;  (* frames interned at [make] time *)
  (* Every non-empty frame by its head symbol and its tail frame, packed
     into one int ([cons_key]), so a frame is found from its tail without
     building its symbol list. *)
  f_cons : (int, frame) Hashtbl.t;
  (* Spine table: hash-consed (frame, tail) pairs.  [nil] is spine 0; keys
     pack both ids into one word, so lookup allocates nothing. *)
  s_ids : (int, spine) Hashtbl.t;
  mutable s_frame : frame array;
  mutable s_tail : spine array;
  mutable s_len : int array;
  mutable s_count : int;
  (* production ix -> frame of its full right-hand side *)
  rhs_frames : frame array;
  fp : string;
  (* Serializes dynamic interning ([cons], [frame_of_syms]) so domains
     parsing in parallel can extend the shared tables.  Readers stay
     lock-free: a domain only ever dereferences ids it interned itself or
     ids published before it was spawned, both of which happen-before the
     read, and [grow] replaces arrays without disturbing the prefix a stale
     reader might still hold.  The lock sits on the prediction slow path
     (cache-miss closure work) only — the warm path never interns. *)
  lock : Mutex.t;
}

let empty_frame = 0
let nil = 0

let grow arr count fill =
  if count < Array.length arr then arr
  else begin
    let bigger = Array.make (2 * max 1 (Array.length arr)) fill in
    Array.blit arr 0 bigger 0 (Array.length arr);
    bigger
  end

let cons_key ~terminal v tail = (((2 * v) + if terminal then 0 else 1) lsl 31) lor tail

let head_of t = function
  | [] -> Empty
  | T a :: rest -> Term (a, Syms_tbl.find t.f_ids rest)
  | NT x :: rest -> Nonterm (x, Syms_tbl.find t.f_ids rest)

(* Intern a suffix whose own tail suffix is already interned (callers go
   shortest-first), or any symbol list by recursing on the tail.  Callers
   must hold [t.lock] (or be single-threaded construction code). *)
let rec frame_of_syms_locked t syms =
  match Syms_tbl.find_opt t.f_ids syms with
  | Some f -> f
  | None ->
    (match syms with
    | [] -> ()
    | _ :: rest -> ignore (frame_of_syms_locked t rest));
    let f = t.f_count in
    t.f_syms <- grow t.f_syms f [];
    t.f_head <- grow t.f_head f Empty;
    t.f_syms.(f) <- syms;
    Syms_tbl.add t.f_ids syms f;
    t.f_head.(f) <- head_of t syms;
    (match t.f_head.(f) with
    | Term (a, tail) -> Hashtbl.replace t.f_cons (cons_key ~terminal:true a tail) f
    | Nonterm (x, tail) -> Hashtbl.replace t.f_cons (cons_key ~terminal:false x tail) f
    | Empty -> ());
    t.f_count <- f + 1;
    f

let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e ->
    Mutex.unlock t.lock;
    raise e

let frame_of_syms t syms = with_lock t (fun () -> frame_of_syms_locked t syms)

(* Lookups that allocate nothing on a hit lock the table directly: the
   locked code raises nothing but [Out_of_memory]. *)
let frame_cons t ~terminal v tail =
  Mutex.lock t.lock;
  let f =
    match Hashtbl.find t.f_cons (cons_key ~terminal v tail) with
    | f -> f
    | exception Not_found ->
      frame_of_syms_locked t ((if terminal then T v else NT v) :: t.f_syms.(tail))
  in
  Mutex.unlock t.lock;
  f

let make g =
  let n_prods = Grammar.num_productions g in
  let t =
    {
      f_ids = Syms_tbl.create 256;
      f_syms = Array.make 64 [];
      f_head = Array.make 64 Empty;
      f_count = 0;
      static_frames = 0;
      f_cons = Hashtbl.create 256;
      s_ids = Hashtbl.create 256;
      s_frame = Array.make 64 (-1);
      s_tail = Array.make 64 (-1);
      s_len = Array.make 64 0;
      s_count = 1 (* spine 0 is nil *);
      rhs_frames = Array.make (max 1 n_prods) 0;
      fp = "";
      lock = Mutex.create ();
    }
  in
  ignore (frame_of_syms t []);
  (* Every frame prediction can build is a suffix of some right-hand side
     (closure pushes whole RHSs and residual suffixes; stable-return forks
     push caller continuations, which are RHS suffixes too), so interning
     all RHS suffixes here makes runtime frame lookup a pure table hit. *)
  Array.iter
    (fun p -> t.rhs_frames.(p.Grammar.ix) <- frame_of_syms t p.Grammar.rhs)
    (Grammar.prods g);
  t.static_frames <- t.f_count;
  (* Digest of the static suffix table, in id order: two runs over equal
     grammars produce identical tables, so the digest keys persisted caches
     to the exact frame-id assignment they were built with. *)
  let buf = Buffer.create 1024 in
  for f = 0 to t.f_count - 1 do
    List.iter
      (fun s ->
        (match s with
        | T a ->
          Buffer.add_char buf 't';
          Buffer.add_string buf (string_of_int a)
        | NT x ->
          Buffer.add_char buf 'n';
          Buffer.add_string buf (string_of_int x));
        Buffer.add_char buf ' ')
      t.f_syms.(f);
    Buffer.add_char buf '\n'
  done;
  Array.iter
    (fun f ->
      Buffer.add_string buf (string_of_int f);
      Buffer.add_char buf ' ')
    t.rhs_frames;
  { t with fp = Digest.to_hex (Digest.string (Buffer.contents buf)) }

let syms_of_frame t f = t.f_syms.(f)
let head t f = Array.unsafe_get t.f_head f
let rhs_frame t ix = t.rhs_frames.(ix)
let num_frames t = t.f_count
let num_static_frames t = t.static_frames
let fingerprint t = t.fp

let cons_locked t f s =
  let key = (f lsl 31) lor s in
  match Hashtbl.find t.s_ids key with
  | sp -> sp
  | exception Not_found ->
    let sp = t.s_count in
    t.s_frame <- grow t.s_frame sp (-1);
    t.s_tail <- grow t.s_tail sp (-1);
    t.s_len <- grow t.s_len sp 0;
    t.s_frame.(sp) <- f;
    t.s_tail.(sp) <- s;
    t.s_len.(sp) <- 1 + t.s_len.(s);
    Hashtbl.add t.s_ids key sp;
    t.s_count <- sp + 1;
    sp

(* Locked like [frame_cons], without a closure. *)
let cons t f s =
  Mutex.lock t.lock;
  let sp = cons_locked t f s in
  Mutex.unlock t.lock;
  sp

let spine_is_nil s = s = 0

let spine_frame t s =
  if s = 0 then invalid_arg "Frames.spine_frame: nil spine"
  else Array.unsafe_get t.s_frame s

let spine_tail t s =
  if s = 0 then invalid_arg "Frames.spine_tail: nil spine"
  else Array.unsafe_get t.s_tail s

let spine_length t s = t.s_len.(s)
let num_spines t = t.s_count

let spine_of_frames t frames =
  with_lock t (fun () ->
      List.fold_right
        (fun syms s -> cons_locked t (frame_of_syms_locked t syms) s)
        frames nil)

let frames_of_spine t s =
  let rec go s acc =
    if s = 0 then List.rev acc else go t.s_tail.(s) (t.f_syms.(t.s_frame.(s)) :: acc)
  in
  go s []
