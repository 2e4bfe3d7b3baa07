// ac3_study: every experiment in bench/ behind one command line.
//
//   ac3_study --list
//   ac3_study NAME [--smoke] [--out DIR] [--threads N]
//             [--protocols|--topologies|--failures LIST] [--baseline DIR]
//
// The registry and StudyMain live in bench/study.{h,cc}; what each study
// reproduces is in docs/paper-map.md.

#include "bench/study.h"

int main(int argc, char** argv) { return ac3::bench::StudyMain(argc, argv); }
