// Copyright 2026 The WWT Authors
//
// Small string helpers shared across modules.

#ifndef WWT_UTIL_STRING_UTIL_H_
#define WWT_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace wwt {

/// ASCII lowercase copy (non-ASCII bytes pass through untouched).
std::string ToLower(std::string_view s);

/// Strips leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// Splits on any character in `delims`, dropping empty pieces.
std::vector<std::string> Split(std::string_view s, std::string_view delims);

/// Splits on `sep` and strips whitespace off every field, keeping empty
/// fields: "a , , b" -> {"a", "", "b"}, "" -> {""}.
std::vector<std::string> SplitTrimmed(std::string_view s, char sep);

/// Joins pieces with `sep`.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// True if `s` starts with / ends with the given prefix/suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// True if every non-space character is a digit, or the string parses as a
/// decimal number (optionally signed, with commas or one dot, %, or units
/// stripped by the caller). Used by header detection and type sniffing.
bool LooksNumeric(std::string_view s);

/// Fraction of alphabetic characters that are uppercase; 0 for no alphas.
double UppercaseRatio(std::string_view s);

/// Edit distance with adjacent transpositions counted as one edit
/// (Damerau); what typo-tolerant row dedup wants ("Mackenzei" is one
/// edit from "Mackenzie").
size_t DamerauLevenshtein(std::string_view a, std::string_view b);

/// `s` escaped for the inside of a JSON string: '"', '\\' and control
/// bytes.
std::string JsonEscape(std::string_view s);

/// Reads all of `s` as a decimal integer in [min, max]: ASCII digits
/// only, so no sign, space or trailing byte. Returns false, leaving
/// *out alone, for anything else.
bool ParseUint(std::string_view s, uint64_t min, uint64_t max,
               uint64_t* out);

/// Reads all of `s` as a finite decimal number in [min, max]: strtod's
/// syntax without leading space, hex, inf or nan. Returns false, leaving
/// *out alone, for anything else.
bool ParseDouble(std::string_view s, double min, double max, double* out);

/// The smallest positive double: as ParseDouble's `min`, "must be > 0".
inline constexpr double kMinPositive =
    std::numeric_limits<double>::denorm_min();

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace wwt

#endif  // WWT_UTIL_STRING_UTIL_H_
