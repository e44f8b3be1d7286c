#include "frontend/lexer.h"

#include <cctype>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "support/str.h"

namespace conair::fe {

const char *
tokenKindName(Tk kind)
{
    switch (kind) {
      case Tk::End: return "end of input";
      case Tk::Ident: return "identifier";
      case Tk::IntLit: return "integer literal";
      case Tk::FloatLit: return "float literal";
      case Tk::StrLit: return "string literal";
      case Tk::KwInt: return "'int'";
      case Tk::KwDouble: return "'double'";
      case Tk::KwVoid: return "'void'";
      case Tk::KwMutex: return "'mutex'";
      case Tk::KwIf: return "'if'";
      case Tk::KwElse: return "'else'";
      case Tk::KwWhile: return "'while'";
      case Tk::KwFor: return "'for'";
      case Tk::KwReturn: return "'return'";
      case Tk::KwBreak: return "'break'";
      case Tk::KwContinue: return "'continue'";
      case Tk::LParen: return "'('";
      case Tk::RParen: return "')'";
      case Tk::LBrace: return "'{'";
      case Tk::RBrace: return "'}'";
      case Tk::LBracket: return "'['";
      case Tk::RBracket: return "']'";
      case Tk::Semi: return "';'";
      case Tk::Comma: return "','";
      case Tk::Assign: return "'='";
      case Tk::Plus: return "'+'";
      case Tk::Minus: return "'-'";
      case Tk::Star: return "'*'";
      case Tk::Slash: return "'/'";
      case Tk::Percent: return "'%'";
      case Tk::Amp: return "'&'";
      case Tk::Pipe: return "'|'";
      case Tk::Caret: return "'^'";
      case Tk::Shl: return "'<<'";
      case Tk::Shr: return "'>>'";
      case Tk::AmpAmp: return "'&&'";
      case Tk::PipePipe: return "'||'";
      case Tk::Bang: return "'!'";
      case Tk::Eq: return "'=='";
      case Tk::Ne: return "'!='";
      case Tk::Lt: return "'<'";
      case Tk::Le: return "'<='";
      case Tk::Gt: return "'>'";
      case Tk::Ge: return "'>='";
      case Tk::PlusAssign: return "'+='";
      case Tk::MinusAssign: return "'-='";
      case Tk::PlusPlus: return "'++'";
      case Tk::MinusMinus: return "'--'";
    }
    return "?";
}

namespace {

constexpr std::pair<std::string_view, Tk> keywords[] = {
    {"int", Tk::KwInt},       {"double", Tk::KwDouble},
    {"void", Tk::KwVoid},     {"mutex", Tk::KwMutex},
    {"if", Tk::KwIf},         {"else", Tk::KwElse},
    {"while", Tk::KwWhile},   {"for", Tk::KwFor},
    {"return", Tk::KwReturn}, {"break", Tk::KwBreak},
    {"continue", Tk::KwContinue},
};

/** The keyword spelled @p word, or Tk::Ident. */
Tk
wordKind(std::string_view word)
{
    for (const auto &[spelling, kind] : keywords)
        if (word == spelling)
            return kind;
    return Tk::Ident;
}

bool
isWordChar(char c)
{
    return std::isalnum((unsigned char)c) || c == '_';
}

} // namespace

std::vector<Token>
lex(const std::string &src, DiagEngine &diags)
{
    std::vector<Token> toks;
    toks.reserve(src.size() / 4 + 16); // about one token per 4 bytes
    size_t pos = 0;
    uint32_t line = 1, col = 1;

    auto advance = [&]() {
        if (pos < src.size() && src[pos] == '\n') {
            ++line;
            col = 1;
        } else {
            ++col;
        }
        ++pos;
    };
    auto peek = [&](size_t n = 0) -> char {
        return pos + n < src.size() ? src[pos + n] : '\0';
    };
    auto make = [&](Tk kind) {
        Token t;
        t.kind = kind;
        t.loc = {line, col};
        return t;
    };
    auto push1 = [&](Tk kind) {
        toks.push_back(make(kind));
        advance();
    };
    auto push2 = [&](Tk kind) {
        toks.push_back(make(kind));
        advance();
        advance();
    };

    while (pos < src.size()) {
        char c = peek();
        if (std::isspace((unsigned char)c)) {
            advance();
            continue;
        }
        if (c == '/' && peek(1) == '/') {
            while (pos < src.size() && peek() != '\n')
                advance();
            continue;
        }
        if (c == '/' && peek(1) == '*') {
            advance();
            advance();
            while (pos < src.size() && !(peek() == '*' && peek(1) == '/'))
                advance();
            advance();
            advance();
            continue;
        }
        if (std::isalpha((unsigned char)c) || c == '_') {
            // Words and numbers hold no newline: the column just moves.
            Token t = make(Tk::Ident);
            size_t start = pos;
            while (pos < src.size() && isWordChar(src[pos]))
                ++pos;
            col += pos - start;
            std::string_view word(src.data() + start, pos - start);
            t.kind = wordKind(word);
            t.text.assign(word);
            toks.push_back(std::move(t));
            continue;
        }
        if (std::isdigit((unsigned char)c) ||
            (c == '.' && std::isdigit((unsigned char)peek(1)))) {
            Token t = make(Tk::IntLit);
            size_t start = pos;
            bool is_float = false;
            for (;; ++pos) {
                char d = peek();
                bool exp_sign = (d == '+' || d == '-') && pos > start &&
                                (src[pos - 1] == 'e' || src[pos - 1] == 'E');
                bool fp = d == '.' || d == 'e' || d == 'E';
                if (!std::isdigit((unsigned char)d) && !fp && !exp_sign)
                    break;
                is_float |= fp;
            }
            col += pos - start;
            std::string num(src, start, pos - start);
            if (is_float) {
                t.kind = Tk::FloatLit;
                t.fval = std::strtod(num.c_str(), nullptr);
            } else {
                t.ival = std::strtoll(num.c_str(), nullptr, 10);
            }
            toks.push_back(std::move(t));
            continue;
        }
        if (c == '"') {
            Token t = make(Tk::StrLit);
            advance();
            std::string raw;
            while (pos < src.size() && peek() != '"') {
                if (peek() == '\\') {
                    raw += peek();
                    advance();
                    if (pos >= src.size())
                        break;
                }
                raw += peek();
                advance();
            }
            if (pos >= src.size()) {
                diags.error(t.loc, "unterminated string literal");
                break;
            }
            advance(); // closing quote
            t.text = unescape(raw);
            toks.push_back(std::move(t));
            continue;
        }
        switch (c) {
          case '(': push1(Tk::LParen); continue;
          case ')': push1(Tk::RParen); continue;
          case '{': push1(Tk::LBrace); continue;
          case '}': push1(Tk::RBrace); continue;
          case '[': push1(Tk::LBracket); continue;
          case ']': push1(Tk::RBracket); continue;
          case ';': push1(Tk::Semi); continue;
          case ',': push1(Tk::Comma); continue;
          case '^': push1(Tk::Caret); continue;
          case '+':
            if (peek(1) == '=') { push2(Tk::PlusAssign); continue; }
            if (peek(1) == '+') { push2(Tk::PlusPlus); continue; }
            push1(Tk::Plus);
            continue;
          case '-':
            if (peek(1) == '=') { push2(Tk::MinusAssign); continue; }
            if (peek(1) == '-') { push2(Tk::MinusMinus); continue; }
            push1(Tk::Minus);
            continue;
          case '*': push1(Tk::Star); continue;
          case '/': push1(Tk::Slash); continue;
          case '%': push1(Tk::Percent); continue;
          case '&':
            if (peek(1) == '&') { push2(Tk::AmpAmp); continue; }
            push1(Tk::Amp);
            continue;
          case '|':
            if (peek(1) == '|') { push2(Tk::PipePipe); continue; }
            push1(Tk::Pipe);
            continue;
          case '!':
            if (peek(1) == '=') { push2(Tk::Ne); continue; }
            push1(Tk::Bang);
            continue;
          case '=':
            if (peek(1) == '=') { push2(Tk::Eq); continue; }
            push1(Tk::Assign);
            continue;
          case '<':
            if (peek(1) == '=') { push2(Tk::Le); continue; }
            if (peek(1) == '<') { push2(Tk::Shl); continue; }
            push1(Tk::Lt);
            continue;
          case '>':
            if (peek(1) == '=') { push2(Tk::Ge); continue; }
            if (peek(1) == '>') { push2(Tk::Shr); continue; }
            push1(Tk::Gt);
            continue;
          default:
            diags.error({line, col}, strfmt("stray character '%c'", c));
            advance();
            continue;
        }
    }
    Token end;
    end.loc = {line, col};
    toks.push_back(end);
    return toks;
}

} // namespace conair::fe
