//===- cfront/Parser.cpp - Parser for the mini-C front end ----------------===//

#include "cfront/Parser.h"

#include "cfront/Lexer.h"

#include <cctype>

using namespace stagg;
using namespace stagg::cfront;

namespace {

class CParser {
public:
  explicit CParser(std::vector<CToken> Tokens) : Tokens(std::move(Tokens)) {}

  const CToken &peek(size_t Ahead = 0) const {
    size_t Index = Pos + Ahead;
    return Index < Tokens.size() ? Tokens[Index] : Tokens.back();
  }
  const CToken &advance() { return Tokens[Pos < Tokens.size() - 1 ? Pos++ : Pos]; }

  bool checkPunct(const std::string &Spelling) const {
    return peek().Kind == CTokKind::Punct && peek().Spelling == Spelling;
  }
  bool matchPunct(const std::string &Spelling) {
    if (!checkPunct(Spelling))
      return false;
    advance();
    return true;
  }
  bool checkKeyword(const std::string &Word) const {
    return peek().Kind == CTokKind::Keyword && peek().Spelling == Word;
  }
  bool matchKeyword(const std::string &Word) {
    if (!checkKeyword(Word))
      return false;
    advance();
    return true;
  }

  void fail(const std::string &Message) {
    if (ErrorMessage.empty())
      ErrorMessage =
          Message + " (line " + std::to_string(peek().Line) + ")";
  }
  bool hadError() const { return !ErrorMessage.empty(); }
  const std::string &error() const { return ErrorMessage; }

  bool atTypeKeyword() const {
    return checkKeyword("int") || checkKeyword("float") ||
           checkKeyword("double") || checkKeyword("void");
  }

  /// type := ("int" | "float" | "double" | "void") "*"*
  CType parseType() {
    CType Type;
    if (checkKeyword("int"))
      Type.Base = BaseType::Int;
    else if (checkKeyword("float"))
      Type.Base = BaseType::Float;
    else if (checkKeyword("double"))
      Type.Base = BaseType::Double;
    else if (checkKeyword("void"))
      Type.Base = BaseType::Void;
    else {
      fail("expected type keyword");
      return Type;
    }
    advance();
    while (matchPunct("*"))
      ++Type.PointerDepth;
    return Type;
  }

  //===--------------------------------------------------------------------===//
  // Expressions (precedence climbing)
  //===--------------------------------------------------------------------===//

  /// primary := INT | FLOAT | IDENT | "(" expr ")"
  CExprPtr parsePrimary() {
    if (peek().Kind == CTokKind::Integer) {
      int64_t Value = advance().IntValue;
      return std::make_unique<IntLit>(Value);
    }
    if (peek().Kind == CTokKind::Float) {
      const CToken &Tok = advance();
      int64_t Mantissa = Tok.FloatMantissa;
      int Scale = Tok.FloatScale;
      return std::make_unique<FloatLit>(Mantissa, Scale);
    }
    if (peek().Kind == CTokKind::Identifier) {
      std::string Name = advance().Spelling;
      return std::make_unique<VarRef>(std::move(Name));
    }
    if (matchPunct("(")) {
      // A parenthesized cast like `(float) x` is parsed and discarded.
      if (atTypeKeyword()) {
        parseType();
        if (!matchPunct(")")) {
          fail("expected ')' after cast type");
          return nullptr;
        }
        return parseUnary();
      }
      CExprPtr Inner = parseExpr();
      if (!Inner)
        return nullptr;
      if (!matchPunct(")")) {
        fail("expected ')'");
        return nullptr;
      }
      return parsePostfixSuffixes(std::move(Inner));
    }
    fail("expected expression");
    return nullptr;
  }

  /// postfix := primary ( "[" expr "]" | "++" | "--" )*
  CExprPtr parsePostfixSuffixes(CExprPtr Base) {
    for (;;) {
      if (matchPunct("[")) {
        CExprPtr Index = parseExpr();
        if (!Index)
          return nullptr;
        if (!matchPunct("]")) {
          fail("expected ']'");
          return nullptr;
        }
        Base = std::make_unique<CIndex>(std::move(Base), std::move(Index));
        continue;
      }
      if (checkPunct("++") || checkPunct("--")) {
        bool IsIncrement = advance().Spelling == "++";
        Base = std::make_unique<CIncDec>(IsIncrement, /*IsPrefix=*/false,
                                         std::move(Base));
        continue;
      }
      return Base;
    }
  }

  CExprPtr parsePostfix() {
    CExprPtr Base = parsePrimary();
    if (!Base)
      return nullptr;
    return parsePostfixSuffixes(std::move(Base));
  }

  /// unary := ("-" | "*" | "&" | "!" | "++" | "--") unary | postfix
  CExprPtr parseUnary() {
    if (matchPunct("-")) {
      CExprPtr Sub = parseUnary();
      if (!Sub)
        return nullptr;
      return std::make_unique<CUnary>(CUnOp::Neg, std::move(Sub));
    }
    if (matchPunct("*")) {
      CExprPtr Sub = parseUnary();
      if (!Sub)
        return nullptr;
      return parsePostfixSuffixes(
          std::make_unique<CUnary>(CUnOp::Deref, std::move(Sub)));
    }
    if (matchPunct("&")) {
      CExprPtr Sub = parseUnary();
      if (!Sub)
        return nullptr;
      return std::make_unique<CUnary>(CUnOp::AddrOf, std::move(Sub));
    }
    if (matchPunct("!")) {
      CExprPtr Sub = parseUnary();
      if (!Sub)
        return nullptr;
      return std::make_unique<CUnary>(CUnOp::Not, std::move(Sub));
    }
    if (checkPunct("++") || checkPunct("--")) {
      bool IsIncrement = advance().Spelling == "++";
      CExprPtr Target = parseUnary();
      if (!Target)
        return nullptr;
      return std::make_unique<CIncDec>(IsIncrement, /*IsPrefix=*/true,
                                       std::move(Target));
    }
    return parsePostfix();
  }

  /// Precedence table for binary operators; higher binds tighter.
  static int binPrecedence(const std::string &Spelling) {
    if (Spelling == "*" || Spelling == "/" || Spelling == "%")
      return 6;
    if (Spelling == "+" || Spelling == "-")
      return 5;
    if (Spelling == "<" || Spelling == "<=" || Spelling == ">" ||
        Spelling == ">=")
      return 4;
    if (Spelling == "==" || Spelling == "!=")
      return 3;
    if (Spelling == "&&")
      return 2;
    if (Spelling == "||")
      return 1;
    return 0;
  }

  static CBinOp binOpFor(const std::string &Spelling) {
    if (Spelling == "*")
      return CBinOp::Mul;
    if (Spelling == "/")
      return CBinOp::Div;
    if (Spelling == "%")
      return CBinOp::Mod;
    if (Spelling == "+")
      return CBinOp::Add;
    if (Spelling == "-")
      return CBinOp::Sub;
    if (Spelling == "<")
      return CBinOp::Lt;
    if (Spelling == "<=")
      return CBinOp::Le;
    if (Spelling == ">")
      return CBinOp::Gt;
    if (Spelling == ">=")
      return CBinOp::Ge;
    if (Spelling == "==")
      return CBinOp::Eq;
    if (Spelling == "!=")
      return CBinOp::Ne;
    if (Spelling == "&&")
      return CBinOp::LAnd;
    return CBinOp::LOr;
  }

  CExprPtr parseBinary(int MinPrecedence) {
    CExprPtr Lhs = parseUnary();
    if (!Lhs)
      return nullptr;
    for (;;) {
      if (peek().Kind != CTokKind::Punct)
        return Lhs;
      int Precedence = binPrecedence(peek().Spelling);
      if (Precedence == 0 || Precedence < MinPrecedence)
        return Lhs;
      std::string Spelling = advance().Spelling;
      CExprPtr Rhs = parseBinary(Precedence + 1);
      if (!Rhs)
        return nullptr;
      Lhs = std::make_unique<CBinary>(binOpFor(Spelling), std::move(Lhs),
                                      std::move(Rhs));
    }
  }

  /// expr := binary [("=" | "+=" | "-=" | "*=" | "/=") expr]
  CExprPtr parseExpr() {
    CExprPtr Lhs = parseBinary(1);
    if (!Lhs)
      return nullptr;
    if (peek().Kind == CTokKind::Punct) {
      const std::string &Spelling = peek().Spelling;
      CAssignOp Op;
      bool IsAssign = true;
      if (Spelling == "=")
        Op = CAssignOp::Plain;
      else if (Spelling == "+=")
        Op = CAssignOp::Add;
      else if (Spelling == "-=")
        Op = CAssignOp::Sub;
      else if (Spelling == "*=")
        Op = CAssignOp::Mul;
      else if (Spelling == "/=")
        Op = CAssignOp::Div;
      else
        IsAssign = false;
      if (IsAssign) {
        advance();
        CExprPtr Rhs = parseExpr();
        if (!Rhs)
          return nullptr;
        return std::make_unique<CAssign>(Op, std::move(Lhs), std::move(Rhs));
      }
    }
    return Lhs;
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  /// Parses `type name [= init] ("," name [= init])* ";"` into a block of
  /// single-declarator statements (or a single CDeclStmt when alone).
  CStmtPtr parseDecl() {
    SourceLoc Loc{peek().Line, peek().Col};
    CType Type = parseType();
    if (hadError())
      return nullptr;
    std::vector<CStmtPtr> Decls;
    do {
      CType DeclType = Type;
      // Per-declarator pointers: `int *p, i;`.
      while (matchPunct("*"))
        ++DeclType.PointerDepth;
      if (peek().Kind != CTokKind::Identifier) {
        fail("expected declarator name");
        return nullptr;
      }
      std::string Name = advance().Spelling;
      CExprPtr Init;
      if (matchPunct("=")) {
        Init = parseExpr();
        if (!Init)
          return nullptr;
      }
      Decls.push_back(
          std::make_unique<CDeclStmt>(DeclType, std::move(Name), std::move(Init)));
      Decls.back()->setLoc(Loc);
    } while (matchPunct(","));
    if (!matchPunct(";")) {
      fail("expected ';' after declaration");
      return nullptr;
    }
    if (Decls.size() == 1)
      return std::move(Decls.front());
    CStmtPtr Block = std::make_unique<CBlock>(std::move(Decls));
    Block->setLoc(Loc);
    return Block;
  }

  CStmtPtr parseStmt() {
    SourceLoc Loc{peek().Line, peek().Col};
    CStmtPtr S = parseStmtInner();
    if (S && !S->loc().valid())
      S->setLoc(Loc);
    return S;
  }

  CStmtPtr parseStmtInner() {
    if (matchPunct(";"))
      return std::make_unique<CEmpty>();
    if (checkPunct("{"))
      return parseBlock();
    if (atTypeKeyword())
      return parseDecl();
    if (matchKeyword("return")) {
      CExprPtr Value;
      if (!checkPunct(";")) {
        Value = parseExpr();
        if (!Value)
          return nullptr;
      }
      if (!matchPunct(";")) {
        fail("expected ';' after return");
        return nullptr;
      }
      return std::make_unique<CReturn>(std::move(Value));
    }
    if (matchKeyword("for")) {
      if (!matchPunct("(")) {
        fail("expected '(' after for");
        return nullptr;
      }
      CStmtPtr Init;
      if (!matchPunct(";")) {
        if (atTypeKeyword()) {
          Init = parseDecl();
        } else {
          CExprPtr E = parseExpr();
          if (!E)
            return nullptr;
          if (!matchPunct(";")) {
            fail("expected ';' in for header");
            return nullptr;
          }
          Init = std::make_unique<CExprStmt>(std::move(E));
        }
        if (!Init)
          return nullptr;
      }
      CExprPtr Cond;
      if (!checkPunct(";")) {
        Cond = parseExpr();
        if (!Cond)
          return nullptr;
      }
      if (!matchPunct(";")) {
        fail("expected second ';' in for header");
        return nullptr;
      }
      CExprPtr Step;
      if (!checkPunct(")")) {
        Step = parseExpr();
        if (!Step)
          return nullptr;
      }
      if (!matchPunct(")")) {
        fail("expected ')' in for header");
        return nullptr;
      }
      CStmtPtr Body = parseStmt();
      if (!Body)
        return nullptr;
      return std::make_unique<CFor>(std::move(Init), std::move(Cond),
                                    std::move(Step), std::move(Body));
    }
    if (matchKeyword("while")) {
      if (!matchPunct("(")) {
        fail("expected '(' after while");
        return nullptr;
      }
      CExprPtr Cond = parseExpr();
      if (!Cond)
        return nullptr;
      if (!matchPunct(")")) {
        fail("expected ')' after while condition");
        return nullptr;
      }
      CStmtPtr Body = parseStmt();
      if (!Body)
        return nullptr;
      return std::make_unique<CWhile>(std::move(Cond), std::move(Body));
    }
    if (matchKeyword("if")) {
      if (!matchPunct("(")) {
        fail("expected '(' after if");
        return nullptr;
      }
      CExprPtr Cond = parseExpr();
      if (!Cond)
        return nullptr;
      if (!matchPunct(")")) {
        fail("expected ')' after if condition");
        return nullptr;
      }
      CStmtPtr Then = parseStmt();
      if (!Then)
        return nullptr;
      CStmtPtr Else;
      if (matchKeyword("else")) {
        Else = parseStmt();
        if (!Else)
          return nullptr;
      }
      return std::make_unique<CIf>(std::move(Cond), std::move(Then),
                                   std::move(Else));
    }
    // Expression statement.
    CExprPtr E = parseExpr();
    if (!E)
      return nullptr;
    if (!matchPunct(";")) {
      fail("expected ';' after expression");
      return nullptr;
    }
    return std::make_unique<CExprStmt>(std::move(E));
  }

  CStmtPtr parseBlock() {
    if (!matchPunct("{")) {
      fail("expected '{'");
      return nullptr;
    }
    std::vector<CStmtPtr> Stmts;
    while (!checkPunct("}") && peek().Kind != CTokKind::End) {
      CStmtPtr Stmt = parseStmt();
      if (!Stmt)
        return nullptr;
      Stmts.push_back(std::move(Stmt));
    }
    if (!matchPunct("}")) {
      fail("expected '}'");
      return nullptr;
    }
    return std::make_unique<CBlock>(std::move(Stmts));
  }

  std::unique_ptr<CFunction> parseFunction() {
    // A numeric literal the lexer could not hold exactly is refused
    // wherever it stands, with its own position.
    for (const CToken &Tok : Tokens)
      if (Tok.Kind == CTokKind::Invalid &&
          std::isdigit(static_cast<unsigned char>(Tok.Spelling[0]))) {
        ErrorMessage = "numeric literal '" + Tok.Spelling +
                       "' is out of range (line " + std::to_string(Tok.Line) +
                       ", column " + std::to_string(Tok.Col) + ")";
        return nullptr;
      }
    auto Function = std::make_unique<CFunction>();
    Function->ReturnType = parseType();
    if (hadError())
      return nullptr;
    if (peek().Kind != CTokKind::Identifier) {
      fail("expected function name");
      return nullptr;
    }
    Function->Name = advance().Spelling;
    if (!matchPunct("(")) {
      fail("expected '(' after function name");
      return nullptr;
    }
    if (!checkPunct(")")) {
      do {
        CParam Param;
        Param.Type = parseType();
        if (hadError())
          return nullptr;
        if (peek().Kind != CTokKind::Identifier) {
          fail("expected parameter name");
          return nullptr;
        }
        Param.Name = advance().Spelling;
        // Array parameter syntax `T a[]` means pointer.
        if (matchPunct("[")) {
          if (peek().Kind == CTokKind::Integer)
            advance();
          if (!matchPunct("]")) {
            fail("expected ']' in array parameter");
            return nullptr;
          }
          ++Param.Type.PointerDepth;
        }
        Function->Params.push_back(std::move(Param));
      } while (matchPunct(","));
    }
    if (!matchPunct(")")) {
      fail("expected ')' after parameters");
      return nullptr;
    }
    CStmtPtr Body = parseBlock();
    if (!Body)
      return nullptr;
    Function->Body.reset(static_cast<CBlock *>(Body.release()));
    return Function;
  }

private:
  std::vector<CToken> Tokens;
  size_t Pos = 0;
  std::string ErrorMessage;
};

} // namespace

CParseResult cfront::parseCFunction(const std::string &Source) {
  CParser Parser(lexC(Source));
  CParseResult Result;
  Result.Function = Parser.parseFunction();
  if (!Result.Function)
    Result.Error = Parser.error().empty() ? "parse failed" : Parser.error();
  return Result;
}
