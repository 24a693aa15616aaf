#include "db/sql_parser.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "db/aggregate.h"
#include "db/schema.h"

namespace seaweed::db {

namespace {

enum class TokKind {
  kEnd,
  kIdent,
  kNumber,
  kString,
  kSymbol,  // punctuation / operators
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;   // identifier text / symbol / string body
  double number = 0;  // for kNumber
  bool number_is_int = true;
  int64_t int_value = 0;
  size_t pos = 0;  // offset in the input, for error messages
};

class Lexer {
 public:
  explicit Lexer(const std::string& input) : input_(input) {}

  Result<Token> Next() {
    SkipSpace();
    Token t;
    t.pos = pos_;
    if (pos_ >= input_.size()) {
      t.kind = TokKind::kEnd;
      return t;
    }
    char c = input_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (pos_ < input_.size() &&
             (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
              input_[pos_] == '_')) {
        ++pos_;
      }
      t.kind = TokKind::kIdent;
      t.text = input_.substr(start, pos_ - start);
      return t;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = pos_;
      bool is_int = true;
      while (pos_ < input_.size() &&
             (std::isdigit(static_cast<unsigned char>(input_[pos_])) ||
              input_[pos_] == '.' || input_[pos_] == 'e' ||
              input_[pos_] == 'E' ||
              ((input_[pos_] == '+' || input_[pos_] == '-') && pos_ > start &&
               (input_[pos_ - 1] == 'e' || input_[pos_ - 1] == 'E')))) {
        if (input_[pos_] == '.' || input_[pos_] == 'e' || input_[pos_] == 'E') {
          is_int = false;
        }
        ++pos_;
      }
      std::string text = input_.substr(start, pos_ - start);
      t.kind = TokKind::kNumber;
      t.number_is_int = is_int;
      // A literal that does not fit its type (or only partly parses, like
      // "1.2.3") is an error, never a silently saturated or truncated value.
      char* endp = nullptr;
      errno = 0;
      if (is_int) {
        t.int_value = std::strtoll(text.c_str(), &endp, 10);
        t.number = static_cast<double>(t.int_value);
      } else {
        t.number = std::strtod(text.c_str(), &endp);
      }
      if (errno == ERANGE || *endp != '\0' || !std::isfinite(t.number)) {
        return Status::ParseError("numeric literal '" + text +
                                  "' out of range or malformed at offset " +
                                  std::to_string(start));
      }
      return t;
    }
    if (c == '\'') {
      ++pos_;
      std::string body;
      while (pos_ < input_.size()) {
        if (input_[pos_] == '\'') {
          // '' escapes a quote.
          if (pos_ + 1 < input_.size() && input_[pos_ + 1] == '\'') {
            body.push_back('\'');
            pos_ += 2;
            continue;
          }
          ++pos_;
          t.kind = TokKind::kString;
          t.text = std::move(body);
          return t;
        }
        body.push_back(input_[pos_++]);
      }
      return Status::ParseError("unterminated string literal at offset " +
                                std::to_string(t.pos));
    }
    // Multi-char operators first.
    auto two = input_.substr(pos_, 2);
    if (two == "<=" || two == ">=" || two == "!=" || two == "<>") {
      pos_ += 2;
      t.kind = TokKind::kSymbol;
      t.text = (two == "<>") ? "!=" : two;
      return t;
    }
    static const std::string kSingles = "()*,=<>+-;";
    if (kSingles.find(c) != std::string::npos) {
      ++pos_;
      t.kind = TokKind::kSymbol;
      t.text = std::string(1, c);
      return t;
    }
    return Status::ParseError(std::string("unexpected character '") + c +
                              "' at offset " + std::to_string(pos_));
  }

 private:
  void SkipSpace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }
  const std::string& input_;
  size_t pos_ = 0;
};

bool KeywordIs(const Token& t, const char* kw) {
  return t.kind == TokKind::kIdent && EqualsIgnoreCase(t.text, kw);
}

class Parser {
 public:
  Parser(const std::string& sql, const ParseOptions& options)
      : lexer_(sql), options_(options) {}

  Result<SelectQuery> Parse() {
    SEAWEED_RETURN_NOT_OK(Advance());
    SEAWEED_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    SelectQuery query;
    SEAWEED_RETURN_NOT_OK(ParseSelectList(&query));
    SEAWEED_RETURN_NOT_OK(ExpectKeyword("FROM"));
    if (cur_.kind != TokKind::kIdent) {
      return Err("expected table name");
    }
    query.table = cur_.text;
    SEAWEED_RETURN_NOT_OK(Advance());
    if (KeywordIs(cur_, "WHERE")) {
      SEAWEED_RETURN_NOT_OK(Advance());
      SEAWEED_ASSIGN_OR_RETURN(query.where, ParseExpr());
    } else {
      query.where = Predicate::True();
    }
    if (KeywordIs(cur_, "GROUP")) {
      SEAWEED_RETURN_NOT_OK(Advance());
      SEAWEED_RETURN_NOT_OK(ExpectKeyword("BY"));
      if (cur_.kind != TokKind::kIdent) {
        return Err("expected column name after GROUP BY");
      }
      query.group_by = cur_.text;
      SEAWEED_RETURN_NOT_OK(Advance());
    }
    // Optional trailing semicolon.
    if (cur_.kind == TokKind::kSymbol && cur_.text == ";") {
      SEAWEED_RETURN_NOT_OK(Advance());
    }
    if (cur_.kind != TokKind::kEnd) {
      return Err("unexpected trailing input: '" + cur_.text + "'");
    }
    return query;
  }

 private:
  Status Advance() {
    SEAWEED_ASSIGN_OR_RETURN(cur_, lexer_.Next());
    return Status::OK();
  }

  Status Err(const std::string& msg) {
    return Status::ParseError(msg + " at offset " + std::to_string(cur_.pos));
  }

  Status ExpectKeyword(const char* kw) {
    if (!KeywordIs(cur_, kw)) {
      return Err(std::string("expected ") + kw);
    }
    return Advance();
  }

  Status ExpectSymbol(const char* sym) {
    if (cur_.kind != TokKind::kSymbol || cur_.text != sym) {
      return Err(std::string("expected '") + sym + "'");
    }
    return Advance();
  }

  Status ParseSelectList(SelectQuery* query) {
    for (;;) {
      SelectItem item;
      const AggregateFunction* func =
          cur_.kind == TokKind::kIdent ? FindAggregate(cur_.text) : nullptr;
      if (func != nullptr) {
        item.is_aggregate = true;
        item.func = func;
        SEAWEED_RETURN_NOT_OK(Advance());
        SEAWEED_RETURN_NOT_OK(ExpectSymbol("("));
        if (cur_.kind == TokKind::kSymbol && cur_.text == "*") {
          if (!func->descriptor().allows_star) {
            return Err("only COUNT may take '*'");
          }
          SEAWEED_RETURN_NOT_OK(Advance());
        } else if (cur_.kind == TokKind::kIdent) {
          item.column = cur_.text;
          SEAWEED_RETURN_NOT_OK(Advance());
        } else {
          return Err("expected column name or '*'");
        }
        if (cur_.kind == TokKind::kSymbol && cur_.text == ",") {
          if (!func->descriptor().takes_param) {
            return Err(func->name() + " does not take a parameter");
          }
          SEAWEED_RETURN_NOT_OK(Advance());
          if (cur_.kind != TokKind::kNumber) {
            return Err("expected numeric parameter for " + func->name());
          }
          Status ok = func->ValidateParam(cur_.number);
          if (!ok.ok()) {
            return Err(ok.message());
          }
          item.param = cur_.number;
          item.has_param = true;
          SEAWEED_RETURN_NOT_OK(Advance());
        }
        SEAWEED_RETURN_NOT_OK(ExpectSymbol(")"));
      } else if (cur_.kind == TokKind::kSymbol && cur_.text == "*") {
        SEAWEED_RETURN_NOT_OK(Advance());
      } else if (cur_.kind == TokKind::kIdent) {
        item.column = cur_.text;
        SEAWEED_RETURN_NOT_OK(Advance());
      } else {
        return Err("expected select item");
      }
      query->items.push_back(std::move(item));
      if (cur_.kind == TokKind::kSymbol && cur_.text == ",") {
        SEAWEED_RETURN_NOT_OK(Advance());
        continue;
      }
      break;
    }
    return Status::OK();
  }

  Result<PredicatePtr> ParseExpr() {
    SEAWEED_ASSIGN_OR_RETURN(PredicatePtr left, ParseConj());
    while (KeywordIs(cur_, "OR")) {
      SEAWEED_RETURN_NOT_OK(Advance());
      SEAWEED_ASSIGN_OR_RETURN(PredicatePtr right, ParseConj());
      left = Predicate::Or(std::move(left), std::move(right));
    }
    return left;
  }

  Result<PredicatePtr> ParseConj() {
    SEAWEED_ASSIGN_OR_RETURN(PredicatePtr left, ParseAtom());
    while (KeywordIs(cur_, "AND")) {
      SEAWEED_RETURN_NOT_OK(Advance());
      SEAWEED_ASSIGN_OR_RETURN(PredicatePtr right, ParseAtom());
      left = Predicate::And(std::move(left), std::move(right));
    }
    return left;
  }

  Result<PredicatePtr> ParseAtom() {
    if (cur_.kind == TokKind::kSymbol && cur_.text == "(") {
      SEAWEED_RETURN_NOT_OK(Advance());
      SEAWEED_ASSIGN_OR_RETURN(PredicatePtr inner, ParseExpr());
      SEAWEED_RETURN_NOT_OK(ExpectSymbol(")"));
      return inner;
    }
    if (cur_.kind != TokKind::kIdent) {
      return Status::ParseError("expected column name at offset " +
                                std::to_string(cur_.pos));
    }
    std::string column = cur_.text;
    SEAWEED_RETURN_NOT_OK(Advance());
    if (cur_.kind != TokKind::kSymbol) {
      return Err("expected comparison operator");
    }
    CompareOp op;
    if (cur_.text == "=") op = CompareOp::kEq;
    else if (cur_.text == "!=") op = CompareOp::kNe;
    else if (cur_.text == "<") op = CompareOp::kLt;
    else if (cur_.text == "<=") op = CompareOp::kLe;
    else if (cur_.text == ">") op = CompareOp::kGt;
    else if (cur_.text == ">=") op = CompareOp::kGe;
    else return Err("expected comparison operator, got '" + cur_.text + "'");
    SEAWEED_RETURN_NOT_OK(Advance());
    SEAWEED_ASSIGN_OR_RETURN(Value literal, ParseScalar());
    return Predicate::Compare(std::move(column), op, std::move(literal));
  }

  // scalar := literal (('+'|'-') literal)*, constant-folded. Mixed
  // string/number arithmetic is rejected.
  Result<Value> ParseScalar() {
    SEAWEED_ASSIGN_OR_RETURN(Value acc, ParseLiteral());
    while (cur_.kind == TokKind::kSymbol &&
           (cur_.text == "+" || cur_.text == "-")) {
      bool add = cur_.text == "+";
      SEAWEED_RETURN_NOT_OK(Advance());
      SEAWEED_ASSIGN_OR_RETURN(Value rhs, ParseLiteral());
      if (acc.is_string() || rhs.is_string()) {
        return Status::ParseError("arithmetic on string literal");
      }
      if (acc.is_int64() && rhs.is_int64()) {
        int64_t folded = 0;
        if (add ? __builtin_add_overflow(acc.AsInt64(), rhs.AsInt64(), &folded)
                : __builtin_sub_overflow(acc.AsInt64(), rhs.AsInt64(),
                                         &folded)) {
          return Status::ParseError("integer overflow in constant expression");
        }
        acc = Value(folded);
      } else {
        double a = acc.is_int64() ? static_cast<double>(acc.AsInt64())
                                  : acc.AsDouble();
        double b = rhs.is_int64() ? static_cast<double>(rhs.AsInt64())
                                  : rhs.AsDouble();
        double folded = add ? a + b : a - b;
        if (!std::isfinite(folded)) {
          return Status::ParseError("overflow in constant expression");
        }
        acc = Value(folded);
      }
    }
    return acc;
  }

  Result<Value> ParseLiteral() {
    if (cur_.kind == TokKind::kNumber) {
      Value v = cur_.number_is_int ? Value(cur_.int_value) : Value(cur_.number);
      SEAWEED_RETURN_NOT_OK(Advance());
      return v;
    }
    if (cur_.kind == TokKind::kString) {
      Value v{cur_.text};
      SEAWEED_RETURN_NOT_OK(Advance());
      return v;
    }
    if (KeywordIs(cur_, "NOW")) {
      SEAWEED_RETURN_NOT_OK(Advance());
      SEAWEED_RETURN_NOT_OK(ExpectSymbol("("));
      SEAWEED_RETURN_NOT_OK(ExpectSymbol(")"));
      return Value(options_.now_unix_seconds);
    }
    // Negative numbers.
    if (cur_.kind == TokKind::kSymbol && cur_.text == "-") {
      SEAWEED_RETURN_NOT_OK(Advance());
      if (cur_.kind != TokKind::kNumber) {
        return Err("expected number after unary '-'");
      }
      Value v = cur_.number_is_int ? Value(-cur_.int_value)
                                   : Value(-cur_.number);
      SEAWEED_RETURN_NOT_OK(Advance());
      return v;
    }
    return Err("expected literal");
  }

  Lexer lexer_;
  ParseOptions options_;
  Token cur_;
};

}  // namespace

Result<SelectQuery> ParseSelect(const std::string& sql,
                                const ParseOptions& options) {
  Parser parser(sql, options);
  return parser.Parse();
}

}  // namespace seaweed::db
