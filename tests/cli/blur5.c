// A five-point weighted blur in the canonical ISL form: the user-kernel
// input of the CLI test (tests/cli/cli_test.cmake).
void blur5_step(float u_out[H][W], const float u[H][W]) {
    for (int y = 0; y < H; y++) {
        for (int x = 0; x < W; x++) {
            u_out[y][x] = 0.5f * u[y][x]
                        + 0.125f * (u[y-1][x] + u[y+1][x] + u[y][x-1] + u[y][x+1]);
        }
    }
}
