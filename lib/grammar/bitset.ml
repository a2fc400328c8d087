(* Dense bitsets over small integer universes (terminal ids): the one set
   type of the FIRST / FOLLOW / sync facts.  {!Analysis} stores one
   word-packed row per nonterminal; membership and union-into are O(1) /
   O(words).  Mutable while the analysis fills them; read-only afterwards. *)

type t = {
  bits : int array;
  universe : int;  (* number of valid bit indexes *)
}

let bits_per_word = Sys.int_size - 1  (* 62 on 64-bit, portable to 32-bit *)

let create universe =
  { bits = Array.make ((universe + bits_per_word - 1) / bits_per_word + 1) 0;
    universe }

let universe s = s.universe

let check s i =
  if i < 0 || i >= s.universe then
    invalid_arg (Printf.sprintf "Bitset: index %d outside universe %d" i
                   s.universe)

let mem s i =
  check s i;
  s.bits.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

(* [add s i] is true iff [i] was not already present (the dataflow engine's
   "did this fact change anything" signal). *)
let add s i =
  check s i;
  let w = i / bits_per_word and b = 1 lsl (i mod bits_per_word) in
  if s.bits.(w) land b <> 0 then false
  else begin
    s.bits.(w) <- s.bits.(w) lor b;
    true
  end

(* [union_into ~into src] merges [src] into [into]; true iff [into] grew. *)
let union_into ~into src =
  if into.universe <> src.universe then
    invalid_arg "Bitset.union_into: universe mismatch";
  let changed = ref false in
  for w = 0 to Array.length into.bits - 1 do
    let merged = into.bits.(w) lor src.bits.(w) in
    if merged <> into.bits.(w) then begin
      into.bits.(w) <- merged;
      changed := true
    end
  done;
  !changed

let union a b =
  let r = create a.universe in
  ignore (union_into ~into:r a);
  ignore (union_into ~into:r b);
  r

let inter a b =
  if a.universe <> b.universe then invalid_arg "Bitset.inter: universe mismatch";
  let r = create a.universe in
  for w = 0 to Array.length r.bits - 1 do
    r.bits.(w) <- a.bits.(w) land b.bits.(w)
  done;
  r

let is_empty s = Array.for_all (fun w -> w = 0) s.bits

let iter f s =
  for i = 0 to s.universe - 1 do
    if mem s i then f i
  done

let elements s =
  let acc = ref [] in
  for i = s.universe - 1 downto 0 do
    if mem s i then acc := i :: !acc
  done;
  !acc
