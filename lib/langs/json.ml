(** JSON: grammar, lexer, and corpus generator.

    The grammar is the classic ANTLR JSON grammar; desugaring it yields
    exactly the Fig. 8 statistics from the paper (11 terminals, 7
    nonterminals, 17 productions). *)

open Costar_lex

let grammar_src =
  {|
    json  : value ;
    value : obj | arr | STRING | NUMBER | 'true' | 'false' | 'null' ;
    obj   : '{' pair (',' pair)* '}' | '{' '}' ;
    pair  : STRING ':' value ;
    arr   : '[' value (',' value)* ']' | '[' ']' ;
  |}

let grammar =
  lazy
    (match Costar_ebnf.Parse.grammar_of_string ~start:"json" grammar_src with
    | Ok g -> g
    | Error msg -> failwith ("Json.grammar: " ^ msg))

let scanner =
  lazy
    (let open Regex in
     let string_re =
       seq [ chr '"'; star (alt [ seq [ chr '\\'; any ]; none_of "\"\\" ]); chr '"' ]
     in
     let number_re =
       seq
         [
           opt (chr '-');
           alt [ chr '0'; seq [ range '1' '9'; star digit ] ];
           opt (seq [ chr '.'; plus digit ]);
           opt (seq [ set "eE"; opt (set "+-"); plus digit ]);
         ]
     in
     Scanner.make
       [
         Scanner.rule "STRING" string_re;
         Scanner.rule "NUMBER" number_re;
         Scanner.rule "true" (str "true");
         Scanner.rule "false" (str "false");
         Scanner.rule "null" (str "null");
         Scanner.rule "{" (chr '{');
         Scanner.rule "}" (chr '}');
         Scanner.rule "[" (chr '[');
         Scanner.rule "]" (chr ']');
         Scanner.rule "," (chr ',');
         Scanner.rule ":" (chr ':');
         Scanner.rule "WS" ~skip:true (plus (set " \t\r\n"));
       ])

(* --- Generator --------------------------------------------------------- *)

let gen_string st =
  Gen_util.addf st "\"%s\"" (Gen_util.word st)

let rec gen_value st depth =
  if Gen_util.exhausted st || depth > 8 then
    (* Leaf values once the budget is gone. *)
    match Gen_util.int st 3 with
    | 0 -> gen_string st
    | 1 -> Gen_util.add st (Gen_util.number st)
    | _ -> Gen_util.add st (Gen_util.pick st [| "true"; "false"; "null" |])
  else
    match Gen_util.int st 8 with
    | 0 | 1 -> gen_object st depth
    | 2 | 3 -> gen_array st depth
    | 4 -> gen_string st
    | 5 -> Gen_util.add st (Gen_util.number st)
    | _ -> Gen_util.add st (Gen_util.pick st [| "true"; "false"; "null" |])

and gen_object st depth =
  let n = Gen_util.int st 5 in
  Gen_util.add st "{";
  for i = 0 to n - 1 do
    if i > 0 then Gen_util.add st ", ";
    gen_string st;
    Gen_util.add st ": ";
    gen_value st (depth + 1)
  done;
  Gen_util.add st "}"

and gen_array st depth =
  let n = Gen_util.int st 6 in
  Gen_util.add st "[";
  for i = 0 to n - 1 do
    if i > 0 then Gen_util.add st ", ";
    gen_value st (depth + 1)
  done;
  Gen_util.add st "]"

let generate ~seed ~size =
  let st = Gen_util.create ~seed ~size in
  (* A top-level array filled until the budget runs out gives files whose
     token count scales linearly with [size]. *)
  Gen_util.add st "[";
  let first = ref true in
  while not (Gen_util.exhausted st) do
    if not !first then Gen_util.add st ",\n";
    first := false;
    gen_value st 0
  done;
  Gen_util.add st "]\n";
  Gen_util.contents st

let lang = Lang.make ~name:"json" ~grammar ~scanner ~generate ()
