(** Prediction subparser configurations (paper, Fig. 1: [theta = (gamma, Psi)]).

    A configuration carries the index of the candidate right-hand side it was
    launched for ([pred]) and a stack of unprocessed-symbol frames.  SLL
    configurations additionally carry a truncated-stack context marker: when
    the frames are exhausted, the subparser simulates a return to the
    statically computed caller continuations of the context nonterminal
    (paper, §3.5 "stable return" frames), or accepts if end-of-input is
    legal there.

    Frames are {e interned}: [s_frames]/[l_frames] is a {!Frames.spine} — a
    hash-consed stack of frame ids in the grammar's suffix table
    ({!Costar_grammar.Frames}, owned by the grammar's {!Analysis.t}) — so a
    configuration is three machine words and compare/hash are O(1).  This
    is the only configuration representation: every engine (the core
    machine, the static analyzer) predicts through it. *)

open Costar_grammar
open Costar_grammar.Symbols

(** Truncated-stack context for SLL subparsers. *)
type sctx =
  | Ctx_nt of nonterminal
      (** Below the frames lies the (unknown) context of this nonterminal:
          popping past it forks to all grammar callers. *)
  | Ctx_accept
      (** Reached by popping through a caller chain that may legally end the
          input: the subparser is in accepting position. *)

type sll = {
  s_pred : int;
  s_frames : Frames.spine;
  s_ctx : sctx;
}

type ll = {
  l_pred : int;
  l_frames : Frames.spine;
}

(** [Ctx_accept] maps below every nonterminal id; only totality of the
    resulting order matters. *)
let ctx_code = function Ctx_nt x -> x | Ctx_accept -> -1

let compare_sctx c1 c2 = Int.compare (ctx_code c1) (ctx_code c2)

let compare_sll c1 c2 =
  let c = Int.compare c1.s_pred c2.s_pred in
  if c <> 0 then c
  else
    let c = Int.compare c1.s_frames c2.s_frames in
    if c <> 0 then c else compare_sctx c1.s_ctx c2.s_ctx

let compare_ll c1 c2 =
  let c = Int.compare c1.l_pred c2.l_pred in
  if c <> 0 then c else Int.compare c1.l_frames c2.l_frames

let equal_sll c1 c2 =
  c1.s_pred = c2.s_pred
  && c1.s_frames = c2.s_frames
  && ctx_code c1.s_ctx = ctx_code c2.s_ctx

let hash_sll c =
  (((c.s_pred * 0x01000193) lxor (c.s_frames * 0x9e3779b1))
   lxor (ctx_code c.s_ctx * 0x85ebca6b))
  land max_int

(** Hash table over SLL configurations (O(1) all-int hashing, no deep
    structure to traverse). *)
module Sll_tbl = Hashtbl.Make (struct
  type t = sll

  let equal = equal_sll
  let hash = hash_sll
end)

module Sll_set = Set.Make (struct
  type t = sll

  let compare = compare_sll
end)

module Ll_set = Set.Make (struct
  type t = ll

  let compare = compare_ll
end)

(** Distinct predictions carried by a list of configurations, ascending. *)
let preds_of_sll configs =
  List.sort_uniq Int.compare (List.map (fun c -> c.s_pred) configs)

let preds_of_ll configs =
  List.sort_uniq Int.compare (List.map (fun c -> c.l_pred) configs)

(** Decode a configuration's frames back to symbol lists (diagnostics and
    persistence; never on the prediction hot path). *)
let sll_frames fr (c : sll) = Frames.frames_of_spine fr c.s_frames

let ll_frames fr (c : ll) = Frames.frames_of_spine fr c.l_frames
