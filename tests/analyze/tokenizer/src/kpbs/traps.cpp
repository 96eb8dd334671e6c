// Near-miss fixture for the tokenizer itself: every rule trigger token in
// this file lives inside a string literal or a comment, so a clean run
// proves the lexer never leaks quoted/commented text into the rule pass.
// (Regression corpus for comment continuation and block comments opened on
// preprocessor lines.)

// Plain comment mentions: rand() mt19937 random_device system_clock
// gettimeofday time(nullptr) obs::metrics()-> solve_ms == 0.5 std::mutex

// A line comment whose trailing backslash splices the next line in \
   rand() mt19937 system_clock gettimeofday -- still comment text \
   random_device time(nullptr) -- and so is this line

/* Block comment:
   srand(42); std::mt19937 gen; std::random_device rd;
   auto t = std::chrono::system_clock::now();
   if (ratio == 0.5) {}
   std::mutex raw_mutex_member_;
*/

#define TRAP_BANNER /* a block comment opened on a preprocessor line
  rand() mt19937 random_device gettimeofday system_clock
  localtime strftime -- all comment text, never code
*/ 1

#define TRAP_PATH "a//b" /* '"' then '//' inside the string is not a comment */
#define TRAP_QUOTED "/*"
// The "/*" above must not open a comment: this line is real code territory.
int trap_code_after_quoted_define() { return TRAP_BANNER; }

const char* kTrapStrings[] = {
    "rand() and mt19937 and random_device",
    "system_clock gettimeofday localtime",
    "obs::metrics()->counter",
    "ratio == 0.5 seconds != 1.0",
    "std::mutex m; std::condition_variable cv;",
    "// redist-analyze: allow(none) a directive inside a string is inert",
};

const char* kTrapRaw = R"delim(
  raw string body: rand() mt19937 system_clock "quoted" /* not a comment */
)delim";

// An encoding-prefixed raw string: the embedded quotes must not end it.
const wchar_t* kTrapPrefixedRaw = LR"x( "rand() mt19937" )x";

int trap_entry() { return kTrapStrings[0] != nullptr && kTrapRaw != nullptr; }
