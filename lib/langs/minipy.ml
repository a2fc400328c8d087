(** MiniPython: a substantial Python 3 subset — grammar, lexer with
    INDENT/DEDENT synthesis, and corpus generator.

    This is the stand-in for the paper's Python 3 benchmark (its largest
    grammar).  The statement and expression grammars follow CPython's
    Grammar/Grammar layering (test / or_test / ... / power / atom with
    trailers); indentation-based block structure is produced by
    {!Indenter}.  Out of scope: async, triple-quoted
    strings, global/nonlocal distinctions, and the walrus operator. *)

open Costar_lex

let grammar_src =
  {|
    file_input : (NEWLINE | stmt)* ;

    stmt        : simple_stmt | compound_stmt ;
    decorator   : '@' dotted_name ('(' arglist? ')')? NEWLINE ;
    decorated   : decorator+ (funcdef | classdef) ;
    simple_stmt : small_stmt (';' small_stmt)* ';'? NEWLINE ;
    small_stmt  : expr_stmt | del_stmt | pass_stmt | flow_stmt
                | import_stmt | global_stmt | assert_stmt ;

    expr_stmt   : testlist (augassign testlist | ('=' testlist)*) ;
    augassign   : '+=' | '-=' | '*=' | '/=' | '%=' | '//=' | '**=' ;
    del_stmt    : 'del' exprlist ;
    pass_stmt   : 'pass' ;
    flow_stmt   : 'break' | 'continue' | return_stmt | raise_stmt | yield_stmt ;
    yield_stmt  : yield_expr ;
    yield_expr  : 'yield' ('from' test | testlist)? ;
    return_stmt : 'return' testlist? ;
    raise_stmt  : 'raise' (test ('from' test)?)? ;

    import_stmt     : 'import' dotted_as_names
                    | 'from' dotted_name 'import' ('*' | import_as_names) ;
    dotted_as_names : dotted_as_name (',' dotted_as_name)* ;
    dotted_as_name  : dotted_name ('as' NAME)? ;
    dotted_name     : NAME ('.' NAME)* ;
    import_as_names : import_as_name (',' import_as_name)* ;
    import_as_name  : NAME ('as' NAME)? ;
    global_stmt     : 'global' NAME (',' NAME)* ;
    assert_stmt     : 'assert' test (',' test)? ;

    compound_stmt : if_stmt | while_stmt | for_stmt | try_stmt | with_stmt
                  | funcdef | classdef | decorated ;
    if_stmt    : 'if' test ':' suite ('elif' test ':' suite)* ('else' ':' suite)? ;
    while_stmt : 'while' test ':' suite ('else' ':' suite)? ;
    for_stmt   : 'for' exprlist 'in' testlist ':' suite ('else' ':' suite)? ;
    try_stmt   : 'try' ':' suite try_rest ;
    try_rest   : (except_clause ':' suite)+
                   ('else' ':' suite)? ('finally' ':' suite)?
               | 'finally' ':' suite ;
    except_clause : 'except' (test ('as' NAME)?)? ;
    with_stmt  : 'with' with_item (',' with_item)* ':' suite ;
    with_item  : test ('as' expr)? ;
    funcdef    : 'def' NAME parameters ('->' test)? ':' suite ;
    parameters : '(' paramlist? ')' ;
    paramlist  : param (',' param)* (',' star_param)? | star_param ;
    star_param : '*' NAME (',' '**' NAME)? | '**' NAME ;
    param      : NAME (':' test)? ('=' test)? ;
    classdef   : 'class' NAME ('(' arglist? ')')? ':' suite ;
    suite      : simple_stmt | NEWLINE INDENT stmt+ DEDENT ;

    test       : or_test ('if' or_test 'else' test)? | lambdef ;
    lambdef    : 'lambda' varargslist? ':' test ;
    varargslist : NAME (',' NAME)* ;
    or_test    : and_test ('or' and_test)* ;
    and_test   : not_test ('and' not_test)* ;
    not_test   : 'not' not_test | comparison ;
    comparison : expr (comp_op expr)* ;
    comp_op    : '<' | '>' | '==' | '>=' | '<=' | '!=' | 'in'
               | 'not' 'in' | 'is' | 'is' 'not' ;
    expr       : xor_expr ('|' xor_expr)* ;
    xor_expr   : and_expr ('^' and_expr)* ;
    and_expr   : shift_expr ('&' shift_expr)* ;
    shift_expr : arith_expr (('<<' | '>>') arith_expr)* ;
    arith_expr : term (('+' | '-') term)* ;
    term       : factor (('*' | '/' | '%' | '//') factor)* ;
    factor     : ('+' | '-' | '~') factor | power ;
    power      : atom_expr ('**' factor)? ;
    atom_expr  : atom trailer* ;
    atom       : '(' (yield_expr | testlist_comp)? ')'
               | '[' testlist_comp? ']'
               | '{' dictorsetmaker? '}'
               | NAME | NUMBER | STRING+ | 'None' | 'True' | 'False'
               | '...' ;
    testlist_comp : test (comp_for | (',' test)* ','?) ;
    comp_for   : 'for' exprlist 'in' or_test comp_iter? ;
    comp_iter  : comp_for | comp_if ;
    comp_if    : 'if' or_test comp_iter? ;
    trailer    : '(' arglist? ')' | '[' subscriptlist ']' | '.' NAME ;
    subscriptlist : subscript (',' subscript)* ;
    subscript  : test (':' test?)? | ':' test? ;
    arglist    : argument (',' argument)* ','? ;
    argument   : test (comp_for | '=' test)? | '*' test | '**' test ;
    exprlist   : expr (',' expr)* ','? ;
    testlist   : test (',' test)* ','? ;
    dictorsetmaker : test ':' test (comp_for | (',' test ':' test)* ','?)
                   | test (comp_for | (',' test)* ','?)
                   | '**' test (',' test ':' test)* ','? ;
  |}

let grammar =
  lazy
    (match
       Costar_ebnf.Parse.grammar_of_string ~start:"file_input"
         ~extra_terminals:[ "NEWLINE"; "INDENT"; "DEDENT" ]
         grammar_src
     with
    | Ok g -> g
    | Error msg -> failwith ("Minipy.grammar: " ^ msg))

let keywords =
  [
    "del"; "pass"; "break"; "continue"; "return"; "raise"; "import"; "from";
    "as"; "global"; "assert"; "if"; "elif"; "else"; "while"; "for"; "in";
    "try"; "except"; "finally"; "with"; "def"; "class"; "lambda"; "yield"; "or";
    "and"; "not"; "is"; "None"; "True"; "False";
  ]

let scanner =
  lazy
    (let open Regex in
     let number_re =
       alt
         [
           seq [ plus digit; opt (seq [ chr '.'; star digit ]) ];
           seq [ chr '.'; plus digit ];
         ]
     in
     let string_re =
       alt
         [
           seq [ chr '"'; star (alt [ seq [ chr '\\'; any ]; none_of "\"\\\n" ]); chr '"' ];
           seq [ chr '\''; star (alt [ seq [ chr '\\'; any ]; none_of "'\\\n" ]); chr '\'' ];
         ]
     in
     let kw_rules = List.map (fun k -> Scanner.rule k (str k)) keywords in
     let op_rules =
       List.map
         (fun op -> Scanner.rule op (str op))
         [
           "**="; "//="; "+="; "-="; "*="; "/="; "%="; "=="; "!="; ">="; "<=";
           "<<"; ">>"; "**"; "//"; "->"; "..."; "("; ")"; "["; "]"; "{"; "}";
           ","; ":"; "."; ";"; "="; "+"; "-"; "*"; "/"; "%"; "<"; ">"; "|";
           "^"; "&"; "~"; "@";
         ]
     in
     Scanner.make
       (kw_rules
       @ [
           Scanner.rule "NAME" (seq [ alt [ letter; chr '_' ]; star word_char ]);
           Scanner.rule "NUMBER" number_re;
           Scanner.rule "STRING" string_re;
         ]
       @ op_rules
       @ [
           Scanner.rule "NEWLINE" (seq [ opt (chr '\r'); chr '\n' ]);
           Scanner.rule "LINE_JOIN" ~skip:true (seq [ chr '\\'; opt (chr '\r'); chr '\n' ]);
           Scanner.rule "COMMENT" ~skip:true (seq [ chr '#'; star (none_of "\n") ]);
           Scanner.rule "WS" ~skip:true (plus (set " \t"));
         ]))

(* --- Generator --------------------------------------------------------- *)

let names = [| "x"; "y"; "z"; "count"; "total"; "items"; "value"; "result"; "data"; "acc" |]
let funcs = [| "process"; "compute"; "update"; "handle"; "merge"; "scan" |]

let rec gen_atom st depth =
  match Gen_util.int st 10 with
  | 0 | 1 | 2 -> Gen_util.add st (Gen_util.pick st names)
  | 3 | 4 -> Gen_util.addf st "%d" (Gen_util.int st 100)
  | 5 -> Gen_util.addf st "\"%s\"" (Gen_util.word st)
  | 6 -> Gen_util.add st (Gen_util.pick st [| "None"; "True"; "False" |])
  | 7 when depth < 3 ->
    Gen_util.add st "[";
    let n = Gen_util.int st 4 in
    for i = 1 to n do
      if i > 1 then Gen_util.add st ", ";
      gen_expr st (depth + 1)
    done;
    Gen_util.add st "]"
  | 8 when depth < 3 ->
    Gen_util.addf st "%s(" (Gen_util.pick st funcs);
    let n = Gen_util.int st 3 in
    for i = 1 to n do
      if i > 1 then Gen_util.add st ", ";
      gen_expr st (depth + 1)
    done;
    Gen_util.add st ")"
  | _ ->
    Gen_util.addf st "%s.%s" (Gen_util.pick st names)
      (Gen_util.pick st [| "size"; "next"; "items"; "get" |])

and gen_expr st depth =
  if depth > 4 then gen_atom st depth
  else
    match Gen_util.int st 8 with
    | 0 | 1 | 2 ->
      gen_atom st depth;
      Gen_util.addf st " %s " (Gen_util.pick st [| "+"; "-"; "*"; "//"; "%" |]);
      gen_atom st (depth + 1)
    | 3 ->
      gen_atom st depth;
      Gen_util.addf st " %s "
        (Gen_util.pick st [| "<"; ">"; "=="; "!="; "<="; ">=" |]);
      gen_atom st (depth + 1)
    | 4 ->
      gen_expr st (depth + 1);
      Gen_util.addf st " %s " (Gen_util.pick st [| "and"; "or" |]);
      gen_expr st (depth + 1)
    | 5 ->
      Gen_util.add st "not ";
      gen_expr st (depth + 1)
    | 6 ->
      gen_atom st depth;
      Gen_util.add st "[";
      gen_atom st (depth + 1);
      Gen_util.add st "]"
    | _ -> gen_atom st depth

let indent st level =
  Gen_util.add st (String.make (4 * level) ' ')

let rec gen_stmt st level depth =
  indent st level;
  match Gen_util.int st 14 with
  | 0 | 1 | 2 | 3 ->
    Gen_util.addf st "%s = " (Gen_util.pick st names);
    gen_expr st 0;
    Gen_util.add st "\n"
  | 4 ->
    Gen_util.addf st "%s %s " (Gen_util.pick st names)
      (Gen_util.pick st [| "+="; "-="; "*=" |]);
    gen_expr st 0;
    Gen_util.add st "\n"
  | 5 ->
    Gen_util.addf st "%s(" (Gen_util.pick st funcs);
    gen_expr st 0;
    Gen_util.add st ")\n"
  | 6 when depth < 3 ->
    Gen_util.add st "if ";
    gen_expr st 0;
    Gen_util.add st ":\n";
    gen_block st (level + 1) (depth + 1);
    if Gen_util.chance st 0.4 then begin
      indent st level;
      Gen_util.add st "else:\n";
      gen_block st (level + 1) (depth + 1)
    end
  | 7 when depth < 3 ->
    Gen_util.addf st "for %s in " (Gen_util.pick st names);
    gen_atom st 0;
    Gen_util.add st ":\n";
    gen_block st (level + 1) (depth + 1)
  | 8 when depth < 3 ->
    Gen_util.add st "while ";
    gen_expr st 0;
    Gen_util.add st ":\n";
    gen_block st (level + 1) (depth + 1)
  | 9 when depth < 2 ->
    Gen_util.add st "try:\n";
    gen_block st (level + 1) (depth + 1);
    indent st level;
    Gen_util.add st "except ValueError as e:\n";
    gen_block st (level + 1) (depth + 1)
  | 10 ->
    Gen_util.add st "return ";
    gen_expr st 0;
    Gen_util.add st "\n"
  | 11 ->
    Gen_util.add st "assert ";
    gen_expr st 0;
    Gen_util.add st "\n"
  | 12 when depth < 3 ->
    Gen_util.addf st "with %s(" (Gen_util.pick st funcs);
    gen_atom st 0;
    Gen_util.addf st ") as %s:\n" (Gen_util.pick st names);
    gen_block st (level + 1) (depth + 1)
  | _ -> Gen_util.add st "pass\n"

and gen_block st level depth =
  let n = 1 + Gen_util.int st 3 in
  for _ = 1 to n do
    gen_stmt st level depth
  done

let gen_funcdef st =
  if Gen_util.chance st 0.2 then
    Gen_util.addf st "@%s\n" (Gen_util.pick st [| "cached"; "staticmethod"; "app.route" |]);
  Gen_util.addf st "def %s_%s(" (Gen_util.pick st funcs) (Gen_util.word st);
  let n = Gen_util.int st 4 in
  for i = 1 to n do
    if i > 1 then Gen_util.add st ", ";
    Gen_util.add st (Gen_util.pick st names);
    if Gen_util.chance st 0.15 then Gen_util.addf st "=%d" (Gen_util.int st 10)
  done;
  if Gen_util.chance st 0.15 then begin
    if n > 0 then Gen_util.add st ", ";
    Gen_util.add st "*args, **kwargs"
  end;
  Gen_util.add st ")";
  if Gen_util.chance st 0.1 then Gen_util.add st " -> None";
  Gen_util.add st ":\n";
  if Gen_util.chance st 0.15 then begin
    indent st 1;
    Gen_util.add st "yield ";
    gen_expr st 0;
    Gen_util.add st "\n"
  end;
  gen_block st 1 0;
  Gen_util.add st "\n"

let gen_classdef st =
  Gen_util.addf st "class %s:\n" (String.capitalize_ascii (Gen_util.word st));
  let n = 1 + Gen_util.int st 3 in
  for _ = 1 to n do
    indent st 1;
    Gen_util.addf st "def %s(self):\n" (Gen_util.pick st funcs);
    gen_block st 2 0
  done;
  Gen_util.add st "\n"

let generate ~seed ~size =
  let st = Gen_util.create ~seed ~size in
  Gen_util.add st "import os\nfrom sys import argv as args\n\n";
  while not (Gen_util.exhausted st) do
    match Gen_util.int st 5 with
    | 0 -> gen_classdef st
    | 1 | 2 -> gen_funcdef st
    | _ -> gen_stmt st 0 0
  done;
  Gen_util.contents st

(* The indenter reads the scanner's scratch directly: only its own output
   is copied out. *)
let lang =
  Lang.make ~name:"minipy" ~grammar ~scanner
    ~post:(fun g -> Indenter.run_buf (Indenter.ids_of_grammar g))
    ~generate ()
